"""Seeded end-to-end benchmark of the ``segmt`` command-line tool.

    python3 bench/run.py --workload longform|talks|prep|all --seed N \\
        --seconds S --trace 0|1 [--out RESULT.json] [--write-digests]

Run from the repository root (or any checkout of it).  Each run generates
the workload's inputs from the seed (``workloads.py``), then repeats rounds
of the thirteen commands of ``commands()`` through ``segmt.cli.main`` for
``--seconds``, one command at a time (a closed loop with one client):

* Each command runs in a child forked from a server that has imported
  numpy, PyYAML and the standard library but not ``segmt`` (see
  ``child.py``), so the package starts cold every time, as for a CLI user.
  The child times one ``main`` call and reads its own peak RSS (``VmHWM``)
  at exit.
* Each untraced round starts with one fresh interpreter that only imports
  ``segmt.cli`` and builds the parser: ``setup_s``.
* Short command groups repeat within a round, so every metric gets several
  samples spread over the run; each timing is the median of its samples.
* The first outputs of every command pass the structural checks of
  ``checks.py`` (and, for the default seed, match the digests recorded in
  ``digests.json`` on the seed commit); every later output must be
  byte-identical to the first.  Failures count against ``error_rate``.

With ``--trace 1`` the rounds alternate untraced and traced, and the run
reports the per-layer metrics of ``layers.py`` plus the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out`` also merges the full
result (every metric with its median, high percentile, sample count and
samples, plus the Python and numpy versions, CPU count, git SHA, seed and
generator parameters) into a file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import checks
import layers
from workloads import WORKLOADS, count_tokens, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
DIGESTS = HERE / "digests.json"
TIMEOUT_S = 120.0
#: A command group shorter than SAMPLE_TARGET_S (including about FORK_COST_S
#: of fork and import per command) runs up to MAX_REPEATS times per round.
SAMPLE_TARGET_S = 0.8
FORK_COST_S = 0.06
MAX_REPEATS = 4
#: Children are single-threaded and see the same hash seed, so runs differ
#: only in their inputs.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = {
    "setup_s": "s",
    "score_s": "s",
    "score_plain_s": "s",
    "report_s": "s",
    "wer_s": "s",
    "variants_s": "s",
    "project_s": "s",
    "simulate_s": "s",
    "textprep_s": "s",
    "augment_s": "s",
    "mix_s": "s",
    "tokens_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


@dataclass
class Command:
    label: str
    metric: str  # end-to-end metric its wall time feeds
    argv: List[str]
    inputs: List[str]  # files it reads, for tokens_per_s
    outputs: List[str]  # files it writes, checked and digested with its stdout
    check: checks.Check
    tokens: int = 0


def commands(name: str) -> List[Command]:
    shape = WORKLOADS[name]
    cfg = ["--config", "in/config.yaml"]
    vocab = ["--vocab", "in/vocab.txt"] if shape.simulate_vocab else []
    mix_inputs = ["bitext.txt", "../out/augment.txt", "bitext_b.txt", "../out/augment.txt"]
    variants = [f"variants/{v}.txt" for v in ("gold", "system", "recognition", "segmentation")]

    def check_mix(inp, out, stdout):
        return checks.check_mix(inp, out, stdout, shape.mix_total)

    return [
        Command("score", "score_s",
                ["score", "in/hyp.txt", "in/ref.txt", "--resegment", *cfg],
                ["hyp.txt", "ref.txt"], [], checks.check_score),
        Command("score_plain", "score_plain_s",
                ["score", "in/hyp_plain.txt", "in/ref.txt", *cfg],
                ["hyp_plain.txt", "ref.txt"], [], checks.check_score_plain),
        Command("report", "report_s",
                ["report", "in/hyp.txt", "in/ref.txt", "--json", "out/report.jsonl", *cfg],
                ["hyp.txt", "ref.txt"], ["report.jsonl"], checks.check_report),
        Command("wer", "wer_s",
                ["wer", "in/ref.txt", "in/hyp.txt", "--json", "out/wer.jsonl", *cfg],
                ["ref.txt", "hyp.txt"], ["wer.jsonl"], checks.check_wer),
        Command("variants", "variants_s",
                ["variants", "in/ref.txt", "in/hyp.txt", "-d", "out/variants", *cfg],
                ["ref.txt", "hyp.txt"], variants, checks.check_variants),
        Command("project", "project_s",
                ["project", "in/ref.txt", "in/hyp.txt", "-o", "out/project.txt", *cfg],
                ["ref.txt", "hyp.txt"], ["project.txt"], checks.check_project),
        Command("simulate", "simulate_s",
                ["simulate", "in/ref.txt", "-o", "out/simulate.txt", *vocab, *cfg],
                ["ref.txt"] + (["vocab.txt"] if vocab else []), ["simulate.txt"],
                checks.check_simulate),
        Command("normalize", "textprep_s",
                ["normalize", "in/ref.txt", "-o", "out/normalize.txt", *cfg],
                ["ref.txt"], ["normalize.txt"], checks.check_normalize),
        Command("segment_punct", "textprep_s",
                ["segment", "punct", "in/ref.txt", "-o", "out/punct.txt", *cfg],
                ["ref.txt"], ["punct.txt"], checks.check_punct),
        Command("segment_fixed", "textprep_s",
                ["segment", "fixed", "in/ref.txt", "-o", "out/fixed.txt", *cfg],
                ["ref.txt"], ["fixed.txt"], checks.check_fixed),
        Command("segment_pause", "textprep_s",
                ["segment", "pause", "in/words.jsonl", "-o", "out/pause.txt", *cfg],
                ["words.jsonl"], ["pause.txt"], checks.check_pause),
        Command("augment", "augment_s",
                ["augment", "in/bitext.txt", "-o", "out/augment.txt", *cfg],
                ["bitext.txt"], ["augment.txt"], checks.check_augment),
        Command("mix", "mix_s",
                ["mix", "--corpus", "a=in/bitext.txt:out/augment.txt",
                 "--corpus", "b=in/bitext_b.txt:out/augment.txt",
                 "--weight", "a=0.7", "--weight", "b=0.3",
                 "--total", str(shape.mix_total), "-o", "out/mix.txt", *cfg],
                mix_inputs, ["mix.txt"], check_mix),
    ]


@dataclass
class Outcome:
    """What one command invocation left behind."""

    ok: bool
    result: Dict = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    stdout: str = ""
    problems: List[str] = field(default_factory=list)


class Runner:
    """Runs commands in a work directory and collects their outcomes."""

    def __init__(self, work: Path):
        self.work = work
        self.logs = work / "logs"
        self.logs.mkdir()
        (work / "out").mkdir()
        self.server: Optional[subprocess.Popen] = None
        self.pending = b""  # server output not yet parsed
        self.env = dict(os.environ, **CHILD_ENV)
        self.env.pop("PYTHONPATH", None)

    def _paths(self):
        return self.logs / "result.json", self.logs / "stdout.txt", self.logs / "stderr.txt"

    def setup_probe(self) -> List[float]:
        """Set-up time of one fresh interpreter that imports the package and runs nothing."""
        result, _, stderr = self._paths()
        argv = [sys.executable, str(HERE / "child.py"), str(result), str(ROOT / "src"), "0", "--"]
        with open(stderr, "wb") as err:
            proc = subprocess.run(argv, cwd=self.work, env=self.env, stderr=err,
                                  timeout=TIMEOUT_S)
        if proc.returncode != 0:
            return []
        data = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        return [data["setup_s"]]

    def forked(self, cmd: Command, trace: bool) -> Outcome:
        result, stdout, stderr = self._paths()
        request = {"argv": cmd.argv, "trace": trace, "result": str(result),
                   "stdout": str(stdout), "stderr": str(stderr)}
        return self._collect(cmd, self._request(request))

    def _request(self, request: Dict) -> int:
        """Send one request to the fork server; return the child's exit code."""
        if self.server is None:
            self.server = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), "--serve", str(ROOT / "src")],
                cwd=self.work, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
        self.server.stdin.write(json.dumps(request).encode("utf-8") + b"\n")
        self.server.stdin.flush()
        pid = self._reply()["pid"]
        try:
            status = self._reply()["status"]
        except TimeoutError:
            os.kill(pid, 9)
            raise
        return os.waitstatus_to_exitcode(status)

    def _reply(self) -> Dict:
        # Read the pipe unbuffered, so select() never waits on a line already read.
        while b"\n" not in self.pending:
            ready, _, _ = select.select([self.server.stdout], [], [], TIMEOUT_S)
            if not ready:
                raise TimeoutError("command did not finish in time")
            chunk = os.read(self.server.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError("fork server exited")
            self.pending += chunk
        line, _, self.pending = self.pending.partition(b"\n")
        return json.loads(line)

    def _collect(self, cmd: Command, returncode: int) -> Outcome:
        result, stdout, stderr = self._paths()
        if returncode != 0 or not result.exists():
            problem = stderr.read_text(encoding="utf-8", errors="replace").strip()
            return Outcome(False, problems=[f"{cmd.label}: child failed: {problem[-500:]}"])
        data = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        if data["exit"] != 0:
            return Outcome(False, data, problems=[f"{cmd.label}: exit code {data['exit']}"])
        try:
            text = stdout.read_text(encoding="utf-8")
            digests = {"stdout": hashlib.sha256(text.encode("utf-8")).hexdigest()}
            for name in cmd.outputs:
                digests[name] = hashlib.sha256((self.work / "out" / name).read_bytes()).hexdigest()
        except (OSError, ValueError) as err:
            return Outcome(False, data, problems=[f"{cmd.label}: unreadable output: {err}"])
        return Outcome(True, data, digests, text)

    def close(self) -> None:
        if self.server is not None:
            self.server.stdin.close()
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server = None


def percentile_summary(samples: List[float]) -> Dict:
    """Median, and the highest percentile with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"value": statistics.median(ordered), "n": n, "high": None, "high_value": None,
               "samples": samples}
    if n >= 11:
        summary["high"] = f"p{100 * (n - 10) // n}"
        summary["high_value"] = ordered[n - 11]
    return summary


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(name: str, seed: int, seconds: int, trace: bool) -> Dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "generator": asdict(WORKLOADS[name]),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, record: bool) -> Dict:
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    runner = Runner(work)
    try:
        return Run(runner, name, seed, record).measure(seconds, trace)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)


def repeats(cost_s: float, commands_in_group: int) -> int:
    """How often a command group runs per round, so short groups get more samples."""
    per_sample = cost_s + FORK_COST_S * commands_in_group
    return max(1, min(MAX_REPEATS, round(SAMPLE_TARGET_S / per_sample)))


class Run:
    """One workload at one seed: its inputs, then rounds of every command."""

    def __init__(self, runner: Runner, name: str, seed: int, record: bool):
        self.runner = runner
        self.name = name
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.token_counts = generate(name, seed, runner.work / "in")
        self.inputs = checks.Inputs(runner.work / "in")
        self.cmds = commands(name)
        self.groups: Dict[str, List[Command]] = {}
        for cmd in self.cmds:
            self.groups.setdefault(cmd.metric, []).append(cmd)
        self.recorded = {}
        if DIGESTS.exists() and seed == DEFAULT_SEED and not record:
            self.recorded = json.loads(DIGESTS.read_text()).get(name, {})
        self.first: Dict[str, Outcome] = {}  # first outcome of each command

    def _count(self, outcome: Outcome) -> bool:
        self.attempted += 1
        if outcome.ok and not outcome.problems:
            return True
        self.failed += 1
        self.problems += outcome.problems
        return False

    def _check_first(self, cmd: Command, outcome: Outcome) -> None:
        """Structural checks and recorded digests, on a command's first outputs."""
        work = self.runner.work
        try:
            outcome.problems = cmd.check(self.inputs, work / "out", outcome.stdout)
        except (OSError, ValueError, KeyError) as err:
            outcome.problems = [f"{cmd.label}: unreadable output: {err}"]
        if not outcome.problems and self.recorded and outcome.digests != self.recorded.get(cmd.label):
            outcome.problems = [f"{cmd.label}: outputs differ from digests.json"]
        cmd.tokens = sum(
            self.token_counts[f] if f in self.token_counts else count_tokens(work / "in" / f)
            for f in cmd.inputs
        )

    def _timed(self, cmd: Command, trace: bool) -> Optional[Dict]:
        outcome = self.runner.forked(cmd, trace)
        reference = self.first.get(cmd.label)
        if reference is None:
            self.first[cmd.label] = outcome
            if outcome.ok:
                self._check_first(cmd, outcome)
        elif outcome.ok and reference.ok and outcome.digests != reference.digests:
            outcome.problems = [f"{cmd.label}: output differs from its first run"]
        return outcome.result if self._count(outcome) else None

    def measure(self, seconds: int, trace: bool) -> Dict:
        """Run whole rounds while the next one is expected to end within ``seconds``.

        The first round runs every command once and sets how often each short
        command group repeats.  Untraced rounds also start with one fresh
        interpreter that only imports the package (``setup_s``).  With
        tracing, later rounds alternate traced and untraced.
        """
        reps = {metric: 1 for metric in self.groups}
        samples: Dict[str, List[float]] = {metric: [] for metric in self.groups}
        traced: Dict[str, List[float]] = {metric: [] for metric in self.groups}
        spans: Dict[str, List[Dict]] = {cmd.label: [] for cmd in self.cmds}
        rates: List[float] = []
        setups: List[float] = []
        peak_kib = 0
        rounds = 0
        start = time.perf_counter()
        round_s = 0.0
        while rounds < 1 + trace or time.perf_counter() - start + round_s <= seconds:
            round_start = time.perf_counter()
            tracing = trace and rounds % 2 == 1
            if not trace:
                setups += self.runner.setup_probe()
            walls: Dict[str, List[float]] = {metric: [] for metric in self.groups}
            # Repeats of short groups come in later passes, spread over the round.
            for rep in range(1 if tracing else MAX_REPEATS):
                for metric, group in self.groups.items():
                    if rep >= reps[metric]:
                        continue
                    results = [self._timed(cmd, tracing) for cmd in group]
                    if None in results:
                        continue
                    walls[metric].append(sum(r["wall_s"] for r in results))
                    if tracing:
                        for cmd, result in zip(group, results):
                            spans[cmd.label].append(result)
                    else:
                        peak_kib = max([peak_kib] + [r["peak_rss_kib"] for r in results])
            medians = {metric: statistics.median(w) for metric, w in walls.items() if w}
            for metric, w in walls.items():
                (traced if tracing else samples)[metric] += w
            if not tracing and len(medians) == len(self.groups):
                rates.append(sum(c.tokens for c in self.cmds) / sum(medians.values()))
            if rounds == 0:
                reps = {m: repeats(medians.get(m, 0.0), len(g)) for m, g in self.groups.items()}
            rounds += 1
            round_s = time.perf_counter() - round_start

        for problem in self.problems[:20]:
            print(f"FAILED {problem}", file=sys.stderr)
        result = {
            "env": environment(self.name, self.seed, seconds, trace),
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.failed == 0,
            "rounds": rounds,
            "repeats": reps,
            "digests": {label: outcome.digests for label, outcome in self.first.items()},
        }
        if trace:
            result["metrics"] = layers.per_layer(spans, traced, samples)
            result["shares"] = layers.shares(spans)
        else:
            series = dict(samples, tokens_per_s=rates, setup_s=setups)
            if peak_kib:
                series["peak_rss_mib"] = [peak_kib / 1024.0]
            result["metrics"] = {
                metric: dict(percentile_summary(series[metric]), unit=unit)
                for metric, unit in END_TO_END.items()
                if series.get(metric)
            }
        return result


def print_table(name: str, result: Dict) -> None:
    env = result["env"]
    print(
        f"# workload {name}  seed {env['seed']}  python {env['python']}  numpy {env['numpy']}"
        f"  nproc {env['nproc']}  git {env['git_sha'][:12]}  trace {int(env['trace'])}"
    )
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<40} {rate:>12.4f} {'':>22}  ratio  "
          f"({result['failed']}/{result['attempted']} commands failed)")
    for metric, m in result["metrics"].items():
        high = f"{m['high']} {m['high_value']:.4g}" if m.get("high") else "n/a"
        n = m.get("n", 1)
        print(f"  {metric:<40} {m['value']:>12.5g} {high:>14} n={n:<5}  {m['unit']}")
    for line in result.get("shares", []):
        print(f"  {line}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="merge the full result into this JSON file")
    parser.add_argument("--write-digests", action="store_true",
                        help=f"record output digests for seed {DEFAULT_SEED} in digests.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "segmt" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'segmt'} not found; run from a checkout", file=sys.stderr)
        return 2
    if args.write_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--write-digests needs --seed {DEFAULT_SEED}")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     args.write_digests)
        print_table(name, results[name])

    if args.write_digests:
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        stored.update({name: r["digests"] for name, r in results.items()})
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    if args.out:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored.update(results)
        args.out.write_text(json.dumps(stored, indent=1) + "\n")

    def metric_key(name: str, metric: str) -> str:
        return metric if len(names) == 1 else f"{name}.{metric}"

    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            metric_key(name, metric): {"value": m["value"], "unit": m["unit"]}
            for name, r in results.items()
            for metric, m in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
