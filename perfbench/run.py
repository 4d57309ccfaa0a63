#!/usr/bin/env python3
"""Benchmark of the walkergames package, driven through its public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

Workloads (see README.md in this directory for why each was chosen):

* ``sweep``: the 113-config golden corpus, each game played, serialised,
  parsed and replayed;
* ``big_board``: two n=800 games, played and replayed;
* ``solve``: exact solves with cross-validation, n=4 at the default cap
  and n=5 at cap 6, both goals, both first players.

Each workload is a closed loop with one client in one thread: the next
game or solve starts only when the previous one has finished. A run
imports the package from ``src/`` and builds its inputs, then repeats
passes over the same inputs until ``--seconds`` have elapsed. It sets up
a few times in a row before the first pass and again every two seconds
between operations; ``setup_s`` is the median of these set-ups. Every
output is checked; an operation that fails a check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
traced and untraced passes, reports the per-layer split of the traced
ones and the tracing overhead, and checks that both kinds of pass give
the same outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print each metric by name with its unit. The exit status is 2 when
the package sources are missing.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

from tracer import Tracer, layer_totals

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden_sweep.json"
# Never created: bytecode is looked up here, so every import compiles.
NO_BYTECODE = HERE / "no-bytecode"
SETUP_BURST = 3      # set-ups in a row, before the first pass and later
SETUP_EVERY = 2.0    # seconds between bursts

# The golden corpus: every pair against every Breaker at three sizes,
# plus the (1:2) isolation games.
SWEEP_SIZES = (20, 50, 100)
SWEEP_PAIRS = (("connectivity", "connectivity"), ("hamilton", "hamilton"),
               ("chase", "connectivity"))
SWEEP_BREAKERS = ("random", "greedy", "delaying", "camper")
SWEEP_SEEDS = 3
ISOLATION_N = 20
ISOLATION_SEEDS = 5

BIG_N = 800
BIG_GAMES = (("connectivity", "connectivity", "greedy"),
             ("hamilton", "hamilton", "camper"))

# (n, move_cap, goal, first player) -> Maker moves to win, None when the
# Breaker prevents the goal. move_cap None is the solver's default.
SOLVE_VALUES = {
    (4, None, "connectivity", "maker"): 4,
    (4, None, "connectivity", "breaker"): 4,
    (4, None, "hamilton", "maker"): None,
    (4, None, "hamilton", "breaker"): None,
    (5, 6, "connectivity", "maker"): 6,
    (5, 6, "connectivity", "breaker"): 5,
    (5, 6, "hamilton", "maker"): None,
    (5, 6, "hamilton", "breaker"): None,
}

# Guarantees checked on every game: the Maker wins within n + slack.
MAKER_SLACK = {"connectivity": 1, "hamilton": 6}


class SetupError(Exception):
    """The package cannot be imported from this checkout."""


def import_package():
    """Import walkergames afresh from this checkout's src/ directory."""
    if not (SRC / "walkergames" / "__init__.py").is_file():
        raise SetupError(f"no walkergames package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Compile from source every time, so that set-up time does not depend
    # on whether the checkout holds bytecode or may be written to.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(NO_BYTECODE)
    for name in [m for m in sys.modules
                 if m == "walkergames" or m.startswith("walkergames.")]:
        del sys.modules[name]
    wg = importlib.import_module("walkergames")
    if Path(wg.__file__).resolve().parent != SRC / "walkergames":
        raise SetupError(f"walkergames imported from {wg.__file__}, "
                         f"not from {SRC}")
    return wg


class Setup:
    """Import plus input generation, timed each time it runs.

    The host's speed changes from one second to the next, so set-ups are
    spread over the run: ``between_ops`` sets up ``SETUP_BURST`` times
    whenever ``SETUP_EVERY`` seconds have passed since the last set-up."""

    def __init__(self, make_inputs, seed: int):
        self.make_inputs = make_inputs
        self.seed = seed
        self.samples: list = []
        self.due = 0.0

    def burst(self):
        """``SETUP_BURST`` set-ups; the package and inputs of the last."""
        for _ in range(SETUP_BURST):
            start = perf_counter()
            wg = import_package()
            items = self.make_inputs(wg, self.seed)
            end = perf_counter()
            self.samples.append(end - start)
        self.due = end + SETUP_EVERY
        return wg, items

    def between_ops(self) -> float:
        """A burst if one is due; the seconds this call took."""
        start = perf_counter()
        if start < self.due:
            return 0.0
        self.burst()
        return perf_counter() - start


# ---------------------------------------------------------------------------
# Inputs and operations
# ---------------------------------------------------------------------------

@dataclass
class GameItem:
    label: str
    config: object              # walkergames.GameConfig
    frozen: Optional[str]       # sha256 of the transcript, when frozen


@dataclass
class SolveItem:
    label: str
    n: int
    move_cap: Optional[int]
    goal: str
    first: object               # walkergames.Player
    expected: Optional[int]


@dataclass
class Outcome:
    op_s: float                 # run_game + dumps, or solve
    replay_s: float             # parse + replay, or cross_validate
    output: str                 # the transcript text or solve JSON
    problem: Optional[str]      # why the output is wrong, None when right
    nodes: int = 0


def game_label(config) -> str:
    return (f"n={config.n} {config.maker}/{config.goal} vs {config.breaker} "
            f"bias={config.bias[0]}:{config.bias[1]} "
            f"first={config.first_player.value} seed={config.seed}")


def sweep_inputs(wg, seed: int) -> list:
    golden = json.loads(GOLDEN.read_text())["transcripts"]
    configs = [wg.GameConfig(n=n, maker=maker, breaker=breaker, goal=goal,
                             seed=s)
               for n in SWEEP_SIZES
               for maker, goal in SWEEP_PAIRS
               for breaker in SWEEP_BREAKERS
               for s in range(seed, seed + SWEEP_SEEDS)]
    configs += [wg.GameConfig(n=ISOLATION_N, maker="chase",
                              breaker="isolating", bias=(1, 2),
                              first_player=wg.Player.MAKER, seed=s)
                for s in range(seed, seed + ISOLATION_SEEDS)]
    return [GameItem(game_label(c), c, golden.get(game_label(c)))
            for c in configs]


def big_board_inputs(wg, seed: int) -> list:
    configs = [wg.GameConfig(n=BIG_N, maker=maker, breaker=breaker,
                             goal=goal, seed=seed)
               for maker, goal, breaker in BIG_GAMES]
    return [GameItem(game_label(c), c, None) for c in configs]


def solve_inputs(wg, seed: int) -> list:
    # The solver is deterministic and takes no seed.
    return [SolveItem(f"n={n} cap={cap or 'default'} {goal} first={first}",
                      n, cap, goal, wg.Player(first), value)
            for (n, cap, goal, first), value in SOLVE_VALUES.items()]


def game_problem(item: GameItem, result, text: str) -> Optional[str]:
    config = item.config
    if result.assertion is not None:
        return f"strategy assertion: {result.assertion}"
    report = result.monitor_report
    if report is not None and not report["clean"]:
        return "monitor report is not clean"
    slack = MAKER_SLACK.get(config.maker)
    if slack is not None and (result.winner != "maker"
                              or result.maker_move_count > config.n + slack):
        return (f"{config.maker} Maker ended {result.winner}/{result.reason} "
                f"after {result.maker_move_count} moves, bound n+{slack}")
    if (config.breaker == "isolating" and tuple(config.bias) == (1, 2)
            and result.winner != "breaker"):
        return f"isolating Breaker lost at (1:2): {result.reason}"
    if item.frozen is not None and sha256(text) != item.frozen:
        return "transcript differs from its frozen digest"
    return None


def play_game(wg, item: GameItem) -> Outcome:
    runner, transcript = wg.runner, wg.transcript
    t0 = perf_counter()
    result = runner.run_game(item.config)
    text = result.transcript.dumps()
    t1 = perf_counter()
    runner.replay_transcript(transcript.parse_transcript(text))
    t2 = perf_counter()
    return Outcome(t1 - t0, t2 - t1, text, game_problem(item, result, text))


def run_solve(wg, item: SolveItem) -> Outcome:
    oracle = wg.oracle
    t0 = perf_counter()
    result = oracle.solve(item.n, item.goal, item.first,
                          move_cap=item.move_cap)
    t1 = perf_counter()
    valid = oracle.cross_validate(result)
    t2 = perf_counter()
    problem = None
    if not valid:
        problem = "principal variation failed cross-validation"
    elif result.maker_moves_to_win != item.expected:
        problem = (f"value {result.maker_moves_to_win}, expected "
                   f"{item.expected}")
    output = json.dumps(result.to_json(), sort_keys=True)
    return Outcome(t1 - t0, t2 - t1, output, problem, result.nodes)


WORKLOADS = {
    "sweep": (sweep_inputs, play_game),
    "big_board": (big_board_inputs, play_game),
    "solve": (solve_inputs, run_solve),
}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    op_s: list = field(default_factory=list)
    replay_s: list = field(default_factory=list)
    digests: list = field(default_factory=list)   # None where the op raised
    problems: list = field(default_factory=list)  # (index, label, why)
    nodes: int = 0
    layers: Optional[dict] = None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(wg, operation, items: list, tracer=None, setup=None) -> Pass:
    """One pass over ``items``. Set-ups done between operations are left
    out of the pass's time."""
    record = Pass(traced=tracer is not None)
    paused = 0.0
    start = perf_counter()
    for index, item in enumerate(items):
        if setup is not None:
            paused += setup.between_ops()
        if tracer is not None:
            tracer.op = index
        try:
            outcome = operation(wg, item)
        except Exception as exc:  # one failed operation must not end the run
            record.digests.append(None)
            record.problems.append(
                (index, item.label, f"{type(exc).__name__}: {exc}"))
            continue
        record.op_s.append(outcome.op_s)
        record.replay_s.append(outcome.replay_s)
        record.digests.append(sha256(outcome.output))
        record.nodes += outcome.nodes
        if outcome.problem is not None:
            record.problems.append((index, item.label, outcome.problem))
    record.wall_s = perf_counter() - start - paused
    return record


def measure(wg, operation, items: list, seconds: float, tracer=None,
            setup=None) -> list:
    """Passes until ``seconds`` have elapsed. With a tracer, passes
    alternate traced and untraced, starting traced, and at least one of
    each runs. With ``setup``, untraced passes set up again between
    operations."""
    passes = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            tracer.reset()
            with tracer.installed(wg):
                record = run_pass(wg, operation, items, tracer)
            record.layers = per_layer(tracer)
            tracer.reset()
        else:
            record = run_pass(wg, operation, items, setup=setup)
        passes.append(record)
        enough = tracer is None or len(passes) >= 2
        if enough and perf_counter() - start >= seconds:
            return passes


def failures(passes: list, items: list) -> list:
    """(pass, index, label, why) for every failed operation. An output
    that differs from the first pass's output for the same input fails
    too, so traced and untraced passes must agree byte for byte."""
    reference = passes[0].digests
    found = []
    for number, record in enumerate(passes):
        bad = {index for index, _, _ in record.problems}
        found += [(number, *problem) for problem in record.problems]
        for index, digest in enumerate(record.digests):
            if (index not in bad and digest is not None
                    and reference[index] is not None
                    and digest != reference[index]):
                found.append((number, index, items[index].label,
                              "output differs from the first pass"))
    return found


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def percentile(values: list, q: float) -> Optional[float]:
    """Nearest-rank q-th percentile, or None when fewer than ten samples
    lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    if rank < 1 or len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def end_to_end(passes: list, setup_s: float) -> dict:
    """Medians over the passes that completed at least one operation."""
    done = [p for p in passes if p.op_s]
    return {
        "wall_s": (statistics.median(p.wall_s for p in done), "s"),
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(len(p.op_s) / sum(p.op_s)
                                        for p in done), "1/s"),
        "replay_s": (statistics.median(sum(p.replay_s) for p in done), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


SELF_TIMED = (
    "engine.apply_move", "engine.legal_moves", "engine.degree_b",
    "runner.run_game", "runner.replay_transcript",
    "monitors.observe", "monitors.maker_edges_form_simple_path",
    "monitors.position_unvisited_degree",
    "monitors.breaker_edges_all_touch_maker",
    "monitors.tainted_unvisited_count",
    "strategies.maker", "strategies.breaker",
    "transcript.dumps", "transcript.parse_transcript",
    "oracle.solve", "oracle.cross_validate",
)
COUNTED = ("engine.apply_move", "engine.legal_moves", "engine.degree_b",
           "monitors.observe", "strategies.maker", "strategies.breaker",
           "oracle.solve")


def per_layer(tracer) -> dict:
    """Layer metrics of one traced pass."""
    totals = layer_totals(tracer.spans)
    counts = tracer.counts

    def get(name):
        return totals.get(name, (0, 0.0, 0.0))

    metrics = {f"{name}.self_s": (get(name)[2], "s") for name in SELF_TIMED}
    metrics.update({f"{name}.calls": (get(name)[0], "count")
                    for name in COUNTED})
    generated = counts["engine.legal_moves.generated"]
    nodes = counts["oracle.solve.nodes"]
    solve_s = get("oracle.solve")[1]
    metrics.update({
        "engine.legal_moves.generated": (generated, "count"),
        "engine.legal_moves.used_ratio": (
            get("engine.legal_moves")[0] / generated if generated else 0.0,
            "ratio"),
        "transcript.dumps.bytes": (counts["transcript.dumps.bytes"], "B"),
        "transcript.parse_transcript.bytes": (
            counts["transcript.parse_transcript.bytes"], "B"),
        "oracle.solve.nodes": (nodes, "count"),
        "oracle.nodes_per_s": (nodes / solve_s if solve_s else 0.0, "1/s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return metrics


def traced_layers(passes: list) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    metrics = {name: (statistics.median(p.layers[name][0] for p in traced),
                      unit)
               for name, (_, unit) in traced[0].layers.items()}
    traced_s = statistics.median(p.wall_s for p in traced)
    plain_s = statistics.median(p.wall_s for p in plain)
    metrics["trace.overhead"] = ((traced_s / plain_s - 1) * 100, "%")
    return metrics


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    make_inputs, operation = WORKLOADS[args.workload]
    setup = Setup(make_inputs, args.seed)
    try:
        wg, items = setup.burst()
    except (SetupError, OSError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    # Traced runs report no setup_s, so they set up only before the start.
    tracer = Tracer() if args.trace else None
    passes = measure(wg, operation, items, args.seconds, tracer,
                     None if args.trace else setup)

    failed = failures(passes, items)
    for number, index, label, why in failed[:20]:
        print(f"FAILED pass {number} op {index} [{label}]: {why}",
              file=sys.stderr)

    if not any(p.op_s for p in passes):
        print("perfbench: every operation failed; nothing was measured",
              file=sys.stderr)
        return 1
    if args.trace:
        metrics = traced_layers(passes)
    else:
        metrics = end_to_end(passes, statistics.median(setup.samples))
    attempted = len(items) * len(passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"of {len(items)} ops, {attempted} attempted, {len(failed)} failed, "
          f"{len(setup.samples)} set-ups")
    print(f"failed_ratio {len(failed) / attempted:.6f}")
    print("pass_wall_s " + " ".join(
        f"{p.wall_s:.4f}{'t' if p.traced else ''}" for p in passes))
    plain = [p for p in passes if not p.traced]
    for name, samples in (("op_s", [x for p in plain for x in p.op_s]),
                          ("replay_op_s",
                           [x for p in plain for x in p.replay_s])):
        p90 = percentile(samples, 90)
        print(f"{name}_p50 {statistics.median(samples):.6g} s, p90 "
              + ("n/a (<10 samples beyond)" if p90 is None else f"{p90:.6g} s")
              + f" [{len(samples)} samples]")
    if args.workload == "solve":
        print(f"solve_nodes {passes[0].nodes} count")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
