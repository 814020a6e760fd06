"""Seeded benchmark for blprover: decide, certificate replay and tree building.

Run from the root of a checkout::

    python3 perfbench/run.py --workload theorems --seed 1 --seconds 25 --trace 0

Workloads (see README.md in this directory for why each was chosen):

* ``theorems``: the BL axiom schemes, transitivity chains and nested
  weakening, each decided with ``check_tautology``.
* ``corpus_decide``: the acceptance suite's criterion-3 draw, decided, each
  certificate sent through JSON and replayed with ``check_no_tautology``.
* ``corpus_trees``: random formulas through ``build_rwbl_tree`` and
  ``tree_stats``.

The load is one closed-loop client in one thread: the next formula is sent
only after the previous one has been answered.  Work comes in rounds; every
round of a workload holds the same formula shapes, and the seed chooses a
fresh variable renaming (and, for the corpora, a fresh order) per round.
``--seconds`` sets the number of rounds: one round per ``ROUND_SECONDS`` of
the budget, at least one.  Timings are medians over rounds, per round for
the wall time and per formula shape for the latencies.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each round
plain and then again under the tracer, and prints the per-layer metrics.
Every output is checked after the timed region; the last line of standard
output is the result as JSON.  The exit code is 0 when every check passed,
1 when some failed and 2 when the package cannot be found or traced.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import inputs
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 1
WORKLOADS = ("theorems", "corpus_decide", "corpus_trees")
# Nominal length of one round at the seed commit on a 2-core machine.
ROUND_SECONDS = {"theorems": 15.0, "corpus_decide": 12.5, "corpus_trees": 12.5}
SETUP_REPEATS = 9
# Rounds whose inputs are prepared in set-up; more are never run.
MAX_ROUNDS = 8
# The timed region is cut here; whatever is unfinished then counts as failed.
WALL_LIMIT_S = 120.0
# Checks stop here, so the process ends well inside three minutes.
PROCESS_LIMIT_S = 165.0
# Suffix of the item names in traced rounds.
TRACED = "+traced"
# Provable verdicts with at most this many variables are checked on the grid.
GRID_MAX_VARS = 4

# The criterion-3 draw of the acceptance suite (seed 77, at most 10000
# estimated branches) up to and including its 100th non-theorem.
DECIDE_SEED, DECIDE_PANEL, DECIDE_CAP = 77, 126, 10000
TREES_SEED, TREES_PANEL, TREES_CAP = 20260825, 100, 3000

LAYER_METRICS = [
    ("calculus.rwbl_premises_self_s", "s"),
    ("calculus.rwbl_premises_calls", "count"),
    ("calculus.premises_made", "count"),
    ("hypersequent.subst_s", "s"),
    ("hypersequent.is_irreducible_s", "s"),
    ("axiom_check.check_axiom_self_s", "s"),
    ("axiom_check.leaves", "count"),
    ("axiom_check.axiom_ratio", "ratio"),
    ("axiom_check.contract_and_sort_s", "s"),
    ("axiom_check.build_lp_s", "s"),
    ("axiom_check.solves_per_leaf", "solves/leaf"),
    ("axiom_check.leaf_distinct_ratio", "ratio"),
    ("linfeas.solve_s", "s"),
    ("linfeas.solve_calls", "count"),
    ("linfeas.feasible_ratio", "ratio"),
    ("linfeas.rows_in_mean", "rows"),
    ("reduction.build_tree_self_s", "s"),
    ("reduction.tree_stats_s", "s"),
    ("reduction.follow_certificate_s", "s"),
    ("prover.search_self_s", "s"),
    ("prover.check_no_tautology_s", "s"),
    ("semantics.satisfies_s", "s"),
    ("formula.parse_s", "s"),
    ("bench.other_s", "s"),
    ("bench.trace_overhead_s", "s"),
]


class WallLimit(BaseException):
    """Raised from the alarm handler; not an Exception, so nothing swallows it."""


def _on_alarm(signum, frame):
    raise WallLimit()


def _arm(seconds: float) -> None:
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))


def _disarm() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)


# ---------------------------------------------------------------- inputs


def make_rounds(workload: str, seed: int) -> list[list[tuple[str, tuple]]]:
    """MAX_ROUNDS rounds of (item name, formula); same seed, same rounds."""
    rng = random.Random(f"{workload}:{seed}")
    rounds = []
    if workload == "theorems":
        base = inputs.theorem_list()
        indices = set().union(*(inputs.variables(f) for _, f in base))
        for r in range(MAX_ROUNDS):
            mapping = inputs.random_renaming(rng, indices)
            rounds.append([(f"r{r}.{name}", inputs.rename(f, mapping)) for name, f in base])
        return rounds
    if workload == "corpus_decide":
        panel = inputs.draw_corpus(DECIDE_SEED, DECIDE_PANEL, DECIDE_CAP)
    else:
        panel = inputs.draw_corpus(TREES_SEED, TREES_PANEL, TREES_CAP)
    for r in range(MAX_ROUNDS):
        order = rng.sample(range(len(panel)), len(panel))
        items = []
        for i in order:
            mapping = inputs.random_renaming(rng, inputs.variables(panel[i]))
            items.append((f"r{r}.f{i:03d}", inputs.rename(panel[i], mapping)))
        rounds.append(items)
    return rounds


def import_package():
    """Import blprover from this checkout's src/, never from anywhere else."""
    if not (SRC / "blprover" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'blprover'}; run from a checkout", file=sys.stderr)
        raise SystemExit(2)
    for name in [m for m in sys.modules if m == "blprover" or m.startswith("blprover.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    api = importlib.import_module("blprover")
    if SRC not in Path(api.__file__).resolve().parents:
        print(f"error: blprover was imported from {api.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return api


def set_up(workload: str, seed: int, tracer: spans.Tracer | None = None):
    """Import, generate every round's formulas and parse them: the set-up cost."""
    started = perf_counter()
    api = import_package()
    rounds = make_rounds(workload, seed)
    if tracer is not None:
        tracer.install()
    try:
        parsed = [
            [(name, f, api.parse(inputs.render(f))) for name, f in items] for items in rounds
        ]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return perf_counter() - started, api, parsed


# ---------------------------------------------------------------- operations


def decide(api, formula) -> tuple[dict, float, float | None]:
    """The user's prove (with certificate JSON) and, when refuted, verify."""
    started = perf_counter()
    result = api.check_tautology(formula)
    text = None if result.provable else result.certificate.to_json(formula)
    decide_took = perf_counter() - started
    outcome = {"result": result, "text": text}
    if result.provable:
        return outcome, decide_took, None
    started = perf_counter()
    back_formula, back_certificate = api.Certificate.from_json(text)
    verdict = api.check_no_tautology(back_formula, back_certificate)
    verify_took = perf_counter() - started
    outcome["back"] = (back_formula, back_certificate)
    outcome["verify"] = verdict
    return outcome, decide_took, verify_took


def build_tree(api, formula) -> tuple[dict, float, None]:
    """The user's ``tree --stats``: materialise the tree, keep only its statistics."""
    started = perf_counter()
    stats = api.tree_stats(api.build_rwbl_tree(formula))
    return {"stats": stats}, perf_counter() - started, None


# ---------------------------------------------------------------- checks


def check_decide(api, workload, f, formula, outcome) -> list[str]:
    result = outcome["result"]
    if result.provable:
        if len(inputs.variables(f)) <= GRID_MAX_VARS and inputs.grid_refutation(f) is not None:
            return ["proved, but a grid valuation refutes it"]
        return []
    problems = []
    if workload == "theorems":
        problems.append("theorem not proved")
    model = result.countermodel
    if model is None:
        return problems + ["refuted without a countermodel"]
    if not api.verify_branch_countermodel(model, result.branch, formula):
        problems.append("countermodel does not refute its branch")
    if api.eval_formula(model, formula).is_infinite:
        problems.append("eval_formula gives the countermodel top")
    if inputs.evaluate(f, inputs.valuation_from_json(model.to_json())) is None:
        problems.append("reference evaluator gives the countermodel top")
    if outcome["back"] != (formula, result.certificate):
        problems.append("certificate changed in the JSON round trip")
    if not outcome["verify"].accepted:
        problems.append(f"certificate rejected on replay: {outcome['verify'].reason}")
    return problems


def check_tree(api, workload, f, formula, outcome) -> list[str]:
    stats = outcome["stats"]
    n = inputs.complexity(f)
    problems = []
    if stats.height > n:
        problems.append(f"height {stats.height} above complexity {n}")
    if stats.leaf_count > inputs.branch_estimate(f):
        problems.append(f"{stats.leaf_count} leaves above the branch estimate")
    if stats.max_branch_weight > inputs.weight_bound(n):
        problems.append(f"branch weight {stats.max_branch_weight} above the envelope")
    return problems


def digest(outcome) -> str:
    if "stats" in outcome:
        s = outcome["stats"]
        record = {"stats": [s.height, s.node_count, s.leaf_count, s.max_branch_weight]}
    else:
        result = outcome["result"]
        record = {
            "provable": result.provable,
            "moves": list(result.certificate.moves) if result.certificate else None,
            "countermodel": result.countermodel.to_json() if result.countermodel else None,
        }
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- measurement


class Run:
    def __init__(self, workload: str, api, tracer: spans.Tracer | None):
        self.workload = workload
        self.api = api
        self.tracer = tracer
        self.operate = build_tree if workload == "corpus_trees" else decide
        self.check = check_tree if workload == "corpus_trees" else check_decide
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.done: list[tuple[str, tuple, object, dict]] = []
        # Latencies by formula shape: the item name without its round prefix.
        self.latency: dict[str, list[float]] = {}
        self.verify_latency: dict[str, list[float]] = {}
        self.walls = {False: [], True: []}
        self.layers: dict[str, dict[str, float]] = {}
        self.root_time = 0.0

    def play(self, schedule: list[tuple[list, bool]]) -> None:
        """Run (round, traced) pairs in order; unfinished items count as failed."""
        _arm(WALL_LIMIT_S)
        position = 0
        try:
            for position, (items, traced) in enumerate(schedule):
                self._round(items, traced)
        except WallLimit:
            if self.tracer is not None:
                self.tracer.uninstall()
            for items, traced in schedule[position + 1 :]:
                self.attempted += len(items)
                for name, _, _ in items:
                    self.failures[name + TRACED * traced] = "not started before the wall limit"
        finally:
            _disarm()

    def _round(self, items, traced: bool) -> None:
        items = [(name + TRACED * traced, f, formula) for name, f, formula in items]
        names = [name for name, _, _ in items]
        self.attempted += len(items)
        position = 0
        gc.collect()
        if traced:
            self.tracer.install()
        started = perf_counter()
        try:
            for position, (name, f, formula) in enumerate(items):
                try:
                    outcome, took, verify_took = self.operate(self.api, formula)
                except Exception as exc:  # the item fails; the run goes on
                    self.failures[name] = f"{type(exc).__name__}: {exc}"
                    continue
                finally:
                    if traced:
                        self.tracer.end_item()
                self.done.append((name, f, formula, outcome))
                if not traced:
                    shape = name.split(".", 1)[1]
                    self.latency.setdefault(shape, []).append(took)
                    if verify_took is not None:
                        self.verify_latency.setdefault(shape, []).append(verify_took)
        except WallLimit:
            for name in names[position:]:
                self.failures.setdefault(name, "unfinished at the wall limit")
            raise
        finally:
            if traced:
                self.tracer.uninstall()
        wall = perf_counter() - started
        self.walls[traced].append(wall)
        if traced:
            summary, root_time = self.tracer.drain()
            self.root_time += root_time
            for span_name, entry in summary.items():
                total = self.layers.setdefault(span_name, {"calls": 0, "total": 0.0, "self": 0.0})
                for key, value in entry.items():
                    total[key] += value

    def verify_all(self, stored: dict | None, deadline: float) -> None:
        """Check every answered item; stops at the deadline, failing the rest."""
        position = 0
        _arm(deadline - perf_counter())
        try:
            for position, (name, f, formula, outcome) in enumerate(self.done):
                try:
                    problems = self.check(self.api, self.workload, f, formula, outcome)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                reference = stored.get(name.removesuffix(TRACED)) if stored else None
                if reference is not None and reference != digest(outcome):
                    problems.append("output differs from the stored digest")
                if problems:
                    self.failures.setdefault(name, "; ".join(problems))
        except WallLimit:
            for name, _, _, _ in self.done[position:]:
                self.failures.setdefault(name, "not checked before the process limit")
        finally:
            _disarm()


def per_shape(samples: dict[str, list[float]]) -> list[float]:
    """Each formula shape's median latency over the rounds."""
    return [statistics.median(values) for values in samples.values()]


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(run: Run, parse_time: float) -> dict[str, float]:
    rounds = len(run.walls[True])
    layers = run.layers
    counters = run.tracer.counters

    def get(span_name: str, field: str) -> float:
        return layers.get(span_name, {}).get(field, 0)

    def per_round(value: float) -> float:
        return value / rounds if rounds else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    leaves = get("axiom_check.check_axiom", "calls")
    solves = get("linfeas.solve", "calls")
    overhead = 0.0
    if run.walls[True] and run.walls[False]:
        overhead = statistics.median(run.walls[True]) - statistics.median(run.walls[False])
    return {
        "calculus.rwbl_premises_self_s": per_round(get("calculus.rwbl_premises", "self")),
        "calculus.rwbl_premises_calls": per_round(get("calculus.rwbl_premises", "calls")),
        "calculus.premises_made": per_round(counters["premises_made"]),
        "hypersequent.subst_s": per_round(get("hypersequent.subst", "total")),
        "hypersequent.is_irreducible_s": per_round(get("hypersequent.is_irreducible", "total")),
        "axiom_check.check_axiom_self_s": per_round(get("axiom_check.check_axiom", "self")),
        "axiom_check.leaves": per_round(leaves),
        "axiom_check.axiom_ratio": ratio(counters["axioms"], leaves),
        "axiom_check.contract_and_sort_s": per_round(get("axiom_check.contract_and_sort", "total")),
        "axiom_check.build_lp_s": per_round(get("axiom_check.build_lp", "total")),
        "axiom_check.solves_per_leaf": ratio(solves, leaves),
        "axiom_check.leaf_distinct_ratio": ratio(counters["distinct_leaves"], leaves),
        "linfeas.solve_s": per_round(get("linfeas.solve", "total")),
        "linfeas.solve_calls": per_round(solves),
        "linfeas.feasible_ratio": ratio(counters["feasible"], solves),
        "linfeas.rows_in_mean": ratio(counters["rows_in"], solves),
        "reduction.build_tree_self_s": per_round(get("reduction.build_rwbl_tree", "self")),
        "reduction.tree_stats_s": per_round(get("reduction.tree_stats", "total")),
        "reduction.follow_certificate_s": per_round(get("reduction.follow_certificate", "total")),
        "prover.search_self_s": per_round(get("prover.check_tautology", "self")),
        "prover.check_no_tautology_s": per_round(get("prover.check_no_tautology", "total")),
        "semantics.satisfies_s": per_round(get("semantics.satisfies", "total")),
        "formula.parse_s": parse_time,
        "bench.other_s": per_round(sum(run.walls[True]) - run.root_time),
        "bench.trace_overhead_s": overhead,
    }


def describe(run: Run, metrics: dict, trace: bool) -> list[str]:
    """Human-readable report, printed above the JSON line."""
    failed = len(run.failures)
    lines = [
        f"workload {run.workload}: {run.attempted} items, {failed} failed, "
        f"fail_frac {failed / max(run.attempted, 1):.4f}"
    ]
    for name, reason in sorted(run.failures.items())[:20]:
        lines.append(f"  FAILED {name}: {reason}")
    if trace:
        traced_wall = sum(run.walls[True])
        classify = run.layers.get("axiom_check.check_axiom", {}).get("total", 0.0)
        lines.append(
            f"  check_axiom with its children (solve among them): {classify:.3f} s "
            f"of {traced_wall:.3f} s traced"
        )
        lines.append(
            f"  tracing overhead {metrics['bench.trace_overhead_s']['value']:.3f} s per round "
            f"(traced minus plain wall_s), time outside spans "
            f"{metrics['bench.other_s']['value']:.3f} s"
        )
        return lines
    op = "tree" if run.workload == "corpus_trees" else "decide"
    rounds = len(run.walls[False])
    lines.append(f"  wall_s {metrics['wall_s']['value']:.3f} s (median of {rounds} rounds)")
    for label, samples in ((op, run.latency), ("verify", run.verify_latency)):
        values = per_shape(samples)
        if values:
            lines.append(
                f"  {label}_p50_ms {1000 * percentile(values, 50):.3f} ms, "
                f"{label}_p90_ms {1000 * percentile(values, 90):.3f} ms (n={len(values)})"
            )
    lines.append(f"  peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB")
    lines.append(f"  setup_s {metrics['setup_s']['value']:.4f} s (median of {SETUP_REPEATS})")
    return lines


def main(argv: list[str] | None = None) -> int:
    process_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digests",
        action="store_true",
        help="store this run's output digests as the reference for the default seed",
    )
    args = parser.parse_args(argv)
    if args.write_digests and (args.seed != DEFAULT_SEED or args.trace):
        parser.error("--write-digests needs the default seed and --trace 0")
    signal.signal(signal.SIGALRM, _on_alarm)
    trace = bool(args.trace)
    count = min(max(1, round(args.seconds / ROUND_SECONDS[args.workload])), MAX_ROUNDS)

    setup_times = []
    for repeat in range(SETUP_REPEATS):
        gc.collect()
        last = repeat == SETUP_REPEATS - 1
        tracer = spans.Tracer() if trace and last else None
        try:
            took, api, rounds = set_up(args.workload, args.seed, tracer)
        except spans.MissingTarget as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        setup_times.append(took)
    parse_time = 0.0
    if trace:
        parsed_spans, _ = tracer.drain()
        parse_time = parsed_spans.get("formula.parse", {}).get("total", 0.0)

    run = Run(args.workload, api, tracer)
    if trace:
        # Each traced round repeats the plain round before it, so the
        # difference between the two is the tracing overhead.
        pairs = max(1, count // 2)
        run.play([(items, traced) for items in rounds[:pairs] for traced in (False, True)])
    else:
        run.play([(items, False) for items in rounds[:count]])

    stored = None
    if args.seed == DEFAULT_SEED and not args.write_digests and DIGESTS.is_file():
        stored = json.loads(DIGESTS.read_text()).get(args.workload)
    run.verify_all(stored, process_start + PROCESS_LIMIT_S)

    if trace:
        values = layer_metrics(run, parse_time)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
    else:
        walls = run.walls[False]
        latency = per_shape(run.latency) or [0.0]
        metrics = {
            "wall_s": {"value": statistics.median(walls) if walls else 0.0, "unit": "s"},
            "latency_p50_ms": {"value": 1000 * percentile(latency, 50), "unit": "ms"},
            "latency_p90_ms": {"value": 1000 * percentile(latency, 90), "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }

    if args.write_digests:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        table[args.workload] = {name: digest(outcome) for name, _, _, outcome in run.done}
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    for line in describe(run, metrics, trace):
        print(line)
    failed = len(run.failures)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
