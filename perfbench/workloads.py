"""The benchmark's three workloads: two cold figure grids and a fault campaign.

Each workload has a set-up phase (cold compiles; for the campaign also
the golden runs and plan drawing) and a measured phase of one round of
operations.  Every operation's output is checked against the kernel's
host-side numpy ``reference()`` or a property of the method, and the
round yields a digest of the simulated statistics that must repeat
exactly.

Importing this module imports ``repro``; the caller puts ``src`` on
``sys.path`` first (see ``run.py``).
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# Everything the measured paths import lazily is imported here, before
# any timer starts, so no phase pays a first import.
import repro.compiler.analysis.vulnerability  # noqa: F401
import repro.compiler.lint  # noqa: F401
import repro.compiler.lint.diagnostics  # noqa: F401
import repro.compiler.passes.optimize  # noqa: F401
import repro.compiler.tv  # noqa: F401
import repro.faults.planner  # noqa: F401
import repro.orchestrator.seeding  # noqa: F401
from repro.compiler.cache import default_cache
from repro.eval import harness as eval_harness
from repro.eval.harness import GridCell, Harness
from repro.eval.paper_data import FIGURE_ORDER
from repro.faults import campaign as fault_campaign
from repro.kernels.binary_search import BinarySearch
from repro.kernels.binomial_option import BinomialOption
from repro.kernels.bitonic_sort import BitonicSort
from repro.kernels.black_scholes import BlackScholes
from repro.kernels.dct import Dct
from repro.kernels.dwt_haar import DwtHaar1D
from repro.kernels.fast_walsh import FastWalshTransform
from repro.kernels.floyd_warshall import FloydWarshall
from repro.kernels.matmul import MatrixMultiplication
from repro.kernels.nbody import NBody
from repro.kernels.prefix_sum import PrefixSum
from repro.kernels.quasi_random import QuasiRandomSequence
from repro.kernels.reduction import Reduction
from repro.kernels.simple_convolution import SimpleConvolution
from repro.kernels.sobel_filter import SobelFilter
from repro.kernels.urng import Urng
from repro.orchestrator import Telemetry, read_journal
from repro.runtime.api import Session

#: The ``small`` suite (``repro.kernels.suite.SMALL_SUITE``) with the
#: input seed exposed, so every kernel's inputs come from the workload seed.
SMALL_KERNELS = {
    "BinS": (BinarySearch, dict(n=8192, segment=8)),
    "BO": (BinomialOption, dict(options=48)),
    "BitS": (BitonicSort, dict(n=2048, local_size=128)),
    "BlkSch": (BlackScholes, dict(n=2048)),
    "DCT": (Dct, dict(width=64, height=64)),
    "DWT": (DwtHaar1D, dict(n=4096)),
    "FWT": (FastWalshTransform, dict(n=4096, local_size=128)),
    "FW": (FloydWarshall, dict(n=32, local_size=128)),
    "MM": (MatrixMultiplication, dict(n=64)),
    "NB": (NBody, dict(bodies=256, local_size=64)),
    "PS": (PrefixSum, dict(n=256)),
    "QRS": (QuasiRandomSequence, dict(n=2048)),
    "R": (Reduction, dict(n=8192)),
    "SC": (SimpleConvolution, dict(width=64, height=64, local_size=128)),
    "SF": (SobelFilter, dict(width=64, height=64, local_size=128)),
    "URNG": (Urng, dict(n=4096, local_size=128)),
}

SCALE = "small"

#: Compiles the set-up phase repeats (cold each time); ``setup_s`` is
#: their median.
SETUP_REPEATS = 3

#: Kernels of the quick mode the benchmark's tests use.
QUICK_KERNELS = ("PS", "FWT")

#: (kernel, variant, target, trials) of the fault campaign, run serially
#: at the campaign CLI's plan bounds.  Fired trials fall into clusters:
#: PS about 6 ms, DWT 60-130 ms, R and NB 220-390 ms, and NB spin hangs
#: of seconds, each simulating the whole watchdog budget.  DWT is the
#: largest share so that op_p50_ms sits inside its cluster whatever the
#: PS fired count; the tail op falls in the R/NB cluster.
CAMPAIGNS = (
    ("DWT", "intra+lds", "vgpr", 96),
    ("R", "intra-lds", "lds", 12),
    ("NB", "inter", "sgpr", 48),
    ("PS", "original", "vgpr", 64),
)
#: Configurations whose fault plans come from the campaign CLI's default
#: seed instead of the workload seed (their inputs still come from the
#: workload seed).  The 48 NB plans of seed 1234 hang once, on every
#: input seed.  With plans from the workload seed, seeds 1-10 hung 1-3
#: times at 2.4-6.5 s each, and that count alone spread ops_per_s by
#: 0.25 across the seeds.
FIXED_PLAN_SEED = {("NB", "inter", "sgpr"): 1234}
QUICK_CAMPAIGNS = (
    ("DWT", "intra+lds", "vgpr", 8),
    ("PS", "original", "vgpr", 8),
)
MAX_WAVE = 8
MAX_INSTR = 100
ARCHITECTURAL_OUTCOMES = ("masked", "detected", "sdc", "hang")


def make_bench(abbrev: str, seed: int):
    cls, kwargs = SMALL_KERNELS[abbrev]
    return cls(seed=seed, **kwargs)


def intra_cells(kernels: Sequence[str]) -> List[GridCell]:
    """Figs. 2-4: original, intra±lds, intra±lds without communication,
    and the original capped to each intra flavour's occupancy."""
    cells = []
    for ab in kernels:
        cells.append(GridCell(ab, "original"))
        for flavor in ("intra+lds", "intra-lds"):
            cells.append(GridCell(ab, flavor))
            cells.append(GridCell(ab, flavor, communication=False))
            cells.append(GridCell(ab, "original", capped_from=flavor))
    return cells


def inter_cells(kernels: Sequence[str]) -> List[GridCell]:
    """Figs. 6-7: original, inter, inter without communication, and the
    original capped to inter occupancy."""
    return [cell for ab in kernels for cell in (
        GridCell(ab, "original"),
        GridCell(ab, "inter"),
        GridCell(ab, "inter", communication=False),
        GridCell(ab, "original", capped_from="inter"),
    )]


def compiles_of(cells: Sequence[GridCell]) -> List[Tuple[str, str, bool]]:
    """Every (kernel, variant, communication) compile the cells use."""
    out = []
    for cell in cells:
        needed = ([(cell.abbrev, "original", True),
                   (cell.abbrev, cell.capped_from, True)]
                  if cell.capped_from
                  else [(cell.abbrev, cell.variant, cell.communication)])
        out.extend(c for c in needed if c not in out)
    return out


# -- results -----------------------------------------------------------------


@dataclass
class WorkloadResult:
    """What one run of a workload measured and checked."""

    op_s: List[float] = field(default_factory=list)
    #: each op's name, parallel to ``op_s``
    op_names: List[str] = field(default_factory=list)
    measured_s: float = 0.0
    setup_samples: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digest_doc: Dict = field(default_factory=dict)
    #: diagnostic lines (per campaign configuration)
    notes: List[str] = field(default_factory=list)

    def tail(self) -> Tuple[int, float]:
        """``(percentile, seconds)`` of the tail op."""
        p = tail_percentile(len(self.op_s))
        return p, sorted(self.op_s)[max(0, _rank(p, len(self.op_s)) - 1)]

    @property
    def digest(self) -> str:
        return digest_of(self.digest_doc)

    def end_to_end(self, peak_rss_mb: float) -> Dict[str, Tuple[float, str]]:
        return {
            "setup_s": (statistics.median(self.setup_samples), "s"),
            "ops_per_s": (len(self.op_s) / self.measured_s, "1/s"),
            "op_p50_ms": (1e3 * statistics.median(self.op_s), "ms"),
            "op_tail_ms": (1e3 * self.tail()[1], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten ops beyond it
    (nearest rank), 50 when there are too few ops for a tail."""
    for p in range(99, 50, -1):
        if n - _rank(p, n) >= 10:
            return p
    return 50


def _rank(p: int, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` values."""
    return -(-p * n // 100)


def digest_of(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class OpClock(Telemetry):
    """Telemetry sink keeping each task's raw duration and when the
    task phase began (the end of a campaign's set-up)."""

    def __init__(self, label: str = ""):
        super().__init__(label=label)
        self.durations: Dict[object, float] = {}
        self.started_at: Optional[float] = None

    def start(self, total: int, skipped: int = 0) -> None:
        self.started_at = time.perf_counter()
        super().start(total, skipped)

    def task_done(self, task_id=None, outcome=None, shard=None, duration=None):
        self.durations[task_id] = duration
        super().task_done(task_id=task_id, outcome=outcome, shard=shard,
                          duration=duration)


def _tolerance(bench) -> Tuple[float, float]:
    """The kernel's own documented float tolerance (its ``check`` defaults)."""
    params = inspect.signature(type(bench).check).parameters
    return params["rtol"].default, params["atol"].default


def output_problems(bench, outputs: Dict[str, np.ndarray],
                    reference: Dict[str, np.ndarray]) -> List[str]:
    """Compare simulated outputs with the host oracle, exactly for
    integers and within the kernel's tolerance for floats."""
    rtol, atol = _tolerance(bench)
    problems = []
    for name, want in reference.items():
        got = np.asarray(outputs.get(name))
        if got.shape != want.shape:
            problems.append(f"{name}: shape {got.shape} != {want.shape}")
        elif want.dtype.kind == "f":
            if not np.allclose(got, want, rtol=rtol, atol=atol):
                problems.append(f"{name}: differs from reference")
        elif not np.array_equal(got, want):
            problems.append(f"{name}: differs from reference")
    return problems


def launch_totals(launches) -> Dict[str, float]:
    """Exact simulated statistics summed over launches."""
    totals = dict(launches=0, sim_cycles=0.0, wave_instrs=0, events=0,
                  atomic_transactions=0, lds_accesses=0,
                  lds_bank_conflict_passes=0, vectorized_launches=0)
    for r in launches:
        totals["launches"] += 1
        totals["sim_cycles"] += r.cycles
        totals["wave_instrs"] += sum(r.wave_instrs)
        totals["events"] += r.events_processed
        totals["atomic_transactions"] += r.counters.atomic_transactions
        totals["lds_accesses"] += r.counters.lds_accesses
        totals["lds_bank_conflict_passes"] += r.counters.lds_bank_conflict_passes
        totals["vectorized_launches"] += r.engine_kind == "vectorized"
    return totals


# -- grids -------------------------------------------------------------------


class _CellCheck:
    """Checks each cell inside the grid harness, where its outputs exist.

    Replaces ``repro.eval.harness._record`` for the run: the check runs
    first (inside the op's time), then the program's own record builder.
    """

    def __init__(self):
        self.problems: Dict[str, List[str]] = {}
        self.totals: Dict[str, Dict] = {}
        self._orig = None

    def __enter__(self):
        self._orig = eval_harness._record
        eval_harness._record = self._record
        return self

    def __exit__(self, *exc):
        eval_harness._record = self._orig

    def _record(self, bench, abbrev, variant, scale, communication,
                capped_from, result):
        problems = output_problems(bench, result.outputs, bench.reference())
        if result.detections:
            problems.append(f"{len(result.detections)} detections fault-free")
        record = self._orig(bench, abbrev, variant, scale, communication,
                            capped_from, result)
        key = record.key()
        if not record.verified:
            problems.append("the program's own check failed")
        self.problems[key] = problems
        self.totals[key] = launch_totals(result.launches)
        return record


class _SeededSuite:
    """Makes the grid harness build every kernel from the workload seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self._orig = None

    def __enter__(self):
        self._orig = eval_harness.make_benchmark
        eval_harness.make_benchmark = lambda abbrev, scale: make_bench(
            abbrev, self.seed)
        return self

    def __exit__(self, *exc):
        eval_harness.make_benchmark = self._orig


def run_grid(cells: Sequence[GridCell], seed: int) -> WorkloadResult:
    out = WorkloadResult()
    cache = default_cache()

    def setup():
        cache.clear()
        gc.collect()
        t0 = time.perf_counter()
        for ab, variant, comm in compiles_of(cells):
            make_bench(ab, seed).compile(variant, communication=comm)
        out.setup_samples.append(time.perf_counter() - t0)

    # The last set-up leaves the compile cache filled for the round; the
    # earlier ones give setup_s its median.
    for _ in range(SETUP_REPEATS):
        setup()
    with _SeededSuite(seed), _CellCheck() as check:
        clock = OpClock(label="grid")
        gc.collect()
        t0 = time.perf_counter()
        records = Harness(scale=SCALE, cache_path="", workers=1).run_grid(
            cells, workers=1, telemetry=clock)
        out.measured_s = time.perf_counter() - t0
    for rec in records:
        key = rec.key()
        out.attempted += 1
        out.op_s.append(clock.durations[key])
        out.op_names.append(key)
        problems = check.problems.get(key, ["not checked"])
        if problems:
            out.failed += 1
            out.problems.extend(f"{key}: {p}" for p in problems)
        out.digest_doc[key] = {"cycles": rec.cycles, "counters": rec.counters,
                               "occupancy": rec.occupancy_groups_per_cu,
                               **check.totals.get(key, {})}
    return out


# -- fault campaign ----------------------------------------------------------


def _campaign(config, seed: int, journal: Path, clock: OpClock,
              rehearse: bool = False):
    ab, variant, target, trials = config
    plan_seed = FIXED_PLAN_SEED.get((ab, variant, target), seed)
    return fault_campaign.run_campaign(
        lambda: make_bench(ab, seed), variant, target, trials=trials,
        seed=plan_seed, max_wave=MAX_WAVE, max_instr=MAX_INSTR, scale=SCALE,
        workers=1, journal=str(journal), telemetry=clock,
        should_stop=(lambda: True) if rehearse else None)


def campaign_problems(config, result, trials: List[Dict], golden) -> List[str]:
    """Property checks of one configuration's campaign.

    ``golden`` is ``(outputs_problems, detections, cycles)`` of a
    fault-free run the benchmark makes itself after the timed phase.
    """
    ab, variant, target, n = config
    name = f"{ab}/{variant}/{target}"
    problems = []
    tallies = result.outcomes
    if len(trials) != n or result.trials != n:
        problems.append(f"{name}: {len(trials)} journaled, {result.trials} "
                        f"tallied, {n} planned")
    if sum(tallies.values()) != result.trials:
        problems.append(f"{name}: outcome tallies do not sum to the trials")
    for t in trials:
        if t["outcome"] not in ARCHITECTURAL_OUTCOMES:
            problems.append(f"{name}: trial {t['index']} ended {t['outcome']}")
        elif not t["fired"] and (t["outcome"] != "masked"
                               or t["cycles"] != golden[2]):
            problems.append(f"{name}: unfired trial {t['index']} differs "
                            f"from the golden run")
    if golden[0] or golden[1]:
        problems.append(f"{name}: golden run fails its host reference "
                        f"({golden[0]}) or reports {golden[1]} detections")
    if variant == "original" and tallies.get("detected", 0):
        problems.append(f"{name}: unprotected kernel reports detections")
    if (ab, variant, target) == ("DWT", "intra+lds", "vgpr") and \
            not tallies.get("detected", 0):
        problems.append(f"{name}: no fault detected")
    return problems


def _golden(config, seed: int):
    ab, variant, _, _ = config
    bench = make_bench(ab, seed)
    run = bench.run(Session(), bench.compile(variant))
    return (output_problems(bench, run.outputs, bench.reference()),
            len(run.detections), run.cycles)


def run_faults(configs: Sequence, seed: int, work_dir: Path) -> WorkloadResult:
    out = WorkloadResult()
    cache = default_cache()

    def timed(config, rehearse):
        cache.clear()
        clock = OpClock(label="campaign")
        journal = work_dir / f"journal-{config[0]}.jsonl"
        t0 = time.perf_counter()
        result = _campaign(config, seed, journal, clock, rehearse)
        return result, clock, journal, clock.started_at - t0, \
            time.perf_counter() - clock.started_at

    # Set-up rehearsals: the campaign stops before its first trial, so
    # only the cold compile, golden run and plan drawing run.
    for _ in range(SETUP_REPEATS - 1):
        gc.collect()
        out.setup_samples.append(sum(timed(c, True)[3] for c in configs))

    setup = 0.0
    runs = []
    for config in configs:
        name = "/".join(config[:3])
        gc.collect()
        result, clock, journal, setup_s, trial_s = timed(config, False)
        setup += setup_s
        out.measured_s += trial_s
        trials = sorted((e for e in read_journal(journal)[1]
                         if e["kind"] == "trial"), key=lambda e: e["index"])
        runs.append((config, result, trials))
        # An op is a fired trial; a trial that did not end in an
        # architectural outcome (a crash) is an op that failed.
        ops = [t for t in trials
               if t["fired"] or t["outcome"] not in ARCHITECTURAL_OUTCOMES]
        out.attempted += len(ops)
        out.failed += sum(t["outcome"] not in ARCHITECTURAL_OUTCOMES
                          for t in ops)
        out.op_s.extend(clock.durations[t["index"]] for t in ops)
        out.op_names.extend(f"{name}/{t['index']}" for t in ops)
        fired = [clock.durations[t["index"]] for t in trials if t["fired"]]
        hangs = sum(t["outcome"] == "hang" for t in trials)
        out.notes.append(
            f"{name}: {len(fired)} of {len(trials)} fired, {hangs} hang, "
            f"setup {setup_s:.3f} s, trials {trial_s:.3f} s, fired p50 "
            f"{1e3 * statistics.median(fired) if fired else 0:.1f} ms")
        out.digest_doc["/".join(map(str, config))] = [
            [t["index"], t["outcome"], t["fired"], t["cycles"],
             t["description"]] for t in trials]
    out.setup_samples.append(setup)
    # Outside the timed phases: the benchmark's own golden runs.
    for config, result, trials in runs:
        out.problems.extend(campaign_problems(
            config, result, trials, _golden(config, seed)))
    return out


WORKLOADS = ("grid_intra", "grid_inter", "fault_campaign")


def run_workload(name: str, seed: int, work_dir: Path,
                 quick: bool = False) -> WorkloadResult:
    kernels = QUICK_KERNELS if quick else FIGURE_ORDER
    if name == "grid_intra":
        return run_grid(intra_cells(kernels), seed)
    if name == "grid_inter":
        return run_grid(inter_cells(kernels), seed)
    if name == "fault_campaign":
        return run_faults(QUICK_CAMPAIGNS if quick else CAMPAIGNS, seed,
                          work_dir)
    raise ValueError(f"unknown workload {name!r}")
