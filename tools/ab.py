"""In-process A/B timing of two blprover source trees on one benchmark panel.

Run from the root of a checkout, for instance against a copy of the parent
commit::

    python3 tools/ab.py --base /path/to/parent/src --head src --workload theorems

Each source root (the directory that holds ``blprover/``) is loaded as its
own package, so both sides run in one process on one machine state.  The
panel is round 0 of a ``perfbench`` workload at its default seed, drawn
through ``perfbench/run.py``'s generator and run through its operations,
which this script only reads.  For every item of every repetition the side
that runs first is drawn at random, and each timing follows a
``gc.collect()``.  Both sides must give equal verdicts, certificate moves and
countermodel JSON (and equal replay outcomes); the exit code is 1 when any
item differs.  The report gives each item's ratio of per-item medians (head
over base) and the summed ratio with a bootstrap 95% interval over items.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# perfbench/ is only read: no bytecode cache is written there.
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
import run  # noqa: E402

# Bootstrap resamples of the summed ratio.
SAMPLES = 2000


def load(root: str, name: str):
    """The package under root/blprover, imported under the module name ``name``."""
    init = Path(root).resolve() / "blprover" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no package at {init.parent}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def observed(outcome: dict) -> tuple:
    """What both sides must agree on: the perfbench digest and the replay outcome."""
    verdict = outcome.get("verify")
    return run.digest(outcome), verdict and (verdict.accepted, verdict.reason)


def bootstrap(base: list[float], head: list[float], rng: random.Random):
    """The 2.5th and 97.5th percentiles of the summed ratio over resampled items."""
    n = len(base)
    ratios = []
    for _ in range(SAMPLES):
        picks = [rng.randrange(n) for _ in range(n)]
        ratios.append(sum(head[i] for i in picks) / sum(base[i] for i in picks))
    cuts = statistics.quantiles(ratios, n=40, method="inclusive")
    return cuts[0], cuts[-1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="source root of the reference side")
    parser.add_argument("--head", required=True, help="source root of the measured side")
    parser.add_argument("--workload", choices=run.WORKLOADS, default="theorems")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--order-seed", type=int, default=0, help="seed of the side order")
    args = parser.parse_args(argv)
    sides = {"base": load(args.base, "blprover_base"), "head": load(args.head, "blprover_head")}
    operate = run.build_tree if args.workload == "corpus_trees" else run.decide
    items = run.make_rounds(args.workload, run.DEFAULT_SEED)[0]
    parsed = {
        side: [api.parse(inputs.render(f)) for _, f in items] for side, api in sides.items()
    }
    rng = random.Random(args.order_seed)
    times: dict[str, list[list[float]]] = {side: [[] for _ in items] for side in sides}
    differing = []
    for _ in range(args.repeats):
        for i, (name, _) in enumerate(items):
            seen = {}
            for side in rng.sample(sorted(sides), 2):
                gc.collect()
                started = perf_counter()
                outcome = operate(sides[side], parsed[side][i])[0]
                times[side][i].append(perf_counter() - started)
                seen[side] = observed(outcome)
            if seen["base"] != seen["head"] and name not in differing:
                differing.append(name)
    base = [statistics.median(t) for t in times["base"]]
    head = [statistics.median(t) for t in times["head"]]
    for (name, _), b, h in zip(items, base, head):
        print(f"{name:<32} base {1000 * b:9.2f} ms  head {1000 * h:9.2f} ms  ratio {h / b:.3f}")
    low, high = bootstrap(base, head, random.Random(args.order_seed))
    print(
        f"{args.workload}: {len(items)} items, {args.repeats} repeats, summed base "
        f"{sum(base):.3f} s, head {sum(head):.3f} s, ratio {sum(head) / sum(base):.3f} "
        f"[{low:.3f}, {high:.3f}]"
    )
    for name in differing:
        print(f"DIFFERS {name}: the two sides' outputs are not equal")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
