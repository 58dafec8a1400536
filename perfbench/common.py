"""Shared plumbing for the benchmark: the program's import path, the corpus
and artifacts every workload starts from, process-tree probes from procfs,
and the host record.

The benchmark drives the ``repro`` package from source: ``src/`` at the root
of the checkout is put on ``sys.path`` by :func:`import_program`.  A checkout
without it makes every entry point fail before a result is printed.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"

PRESET = "taobao"
SCALE = 1.0
CORPUS_SEED = 1
DIM = 32
MODEL_SEED = 1
TOP_K = 10

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """A check or a lifecycle step failed; the message is the one-line
    reason the run prints before exiting non-zero."""


def import_program() -> None:
    """Make ``import repro`` resolve to the checkout's ``src/`` tree."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def make_work_dir(tag: str) -> Path:
    """A fresh scratch directory inside the checkout (removed by the caller
    through :func:`remove_work_dir`)."""
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


# ----------------------------------------------------------------------
# corpus and artifacts (the inputs `repro train/export/serve` start from)
# ----------------------------------------------------------------------

def build_corpus():
    """The dataset `repro serve` rebuilds from an artifact's provenance."""
    from repro.data import DATASET_PRESETS, generate, k_core_filter
    return k_core_filter(generate(DATASET_PRESETS[PRESET](SCALE),
                                  seed=CORPUS_SEED))


def build_context(seed: int = CORPUS_SEED):
    """The experiment context `repro train`/`repro export` build."""
    from repro.experiments import ExperimentContext
    return ExperimentContext.build(PRESET, scale=SCALE, seed=seed)


CATALOG_SEED = 7


def synthetic_catalog(vectors, size: int):
    """Tile the exported item block up to ``size`` rows with fixed-seed
    noise (half the table's std), keeping its scale statistics."""
    import numpy as np
    count = max(size, vectors.shape[0])
    reps = -(-count // vectors.shape[0])
    tiled = np.tile(vectors, (reps, 1))[:count]
    rng = np.random.default_rng(CATALOG_SEED)
    noise = rng.normal(scale=float(vectors.std()) * 0.5, size=tiled.shape)
    return (tiled + noise).astype(np.float32)


def export_serving_artifact(work: Path, catalog_size: int | None):
    """Export an untrained dim-32 MISSL (serving cost does not depend on the
    weights); with ``catalog_size`` the item table is replaced by a
    synthetic catalog of that many items.  Returns the artifact path and
    the experiment context (corpus and split) it was exported from."""
    import numpy as np

    from repro.experiments import build_model
    from repro.serve import export_artifact, load_artifact, write_artifact

    context = build_context()
    model = build_model("MISSL", context, dim=DIM, seed=MODEL_SEED)
    path = export_artifact(model, work / "artifact.npz",
                           extra={"preset": PRESET, "scale": SCALE,
                                  "seed": CORPUS_SEED})
    if catalog_size is None:
        return path, context
    artifact = load_artifact(path)
    table = np.asarray(artifact.item_table, dtype=np.float32)
    catalog = synthetic_catalog(table[1:], catalog_size)
    big = np.concatenate([table[:1], catalog])
    path = write_artifact(replace(artifact, item_table=big,
                                  num_items=int(catalog.shape[0])),
                          work / "catalog.npz")
    return path, context


# ----------------------------------------------------------------------
# process-tree probes
# ----------------------------------------------------------------------

def tree_pids(root: int) -> list[int]:
    """``root`` and all its live descendants."""
    pids, stack = [], [root]
    while stack:
        pid = stack.pop()
        pids.append(pid)
        try:
            text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
        except OSError:
            continue
        stack.extend(int(child) for child in text.split())
    return pids


def tree_pss_mb(root: int) -> float:
    """Proportional set size of a process tree in MB (shared pages counted
    once across the tree)."""
    total_kb = 0
    for pid in tree_pids(root):
        try:
            for line in Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines():
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
        except OSError:
            continue
    return total_kb / 1024.0


def tree_cpu_seconds(root: int) -> float:
    """User + system CPU seconds of a live process tree."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in tree_pids(root):
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / ticks


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# host record
# ----------------------------------------------------------------------

def host_record() -> dict:
    """CPU count, NumPy/BLAS build and the BLAS thread environment as
    found (the benchmark never sets it)."""
    import numpy as np
    record = {"nproc": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0)),
              "python": platform.python_version(),
              "numpy": np.__version__,
              "blas_env": {name: os.environ.get(name) for name in BLAS_ENV}}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        record["blas"] = {key: blas.get(key) for key in
                          ("name", "version", "openblas configuration")}
    except TypeError:  # NumPy < 1.25 has no dict mode
        record["blas"] = None
    return record
