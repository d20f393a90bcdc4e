"""Run ``segmt`` subcommands in fresh processes and report their cost.

    python3 child.py RESULT.json SRC_DIR TRACE -- [SUBCOMMAND ARGS...]
    python3 child.py --serve SRC_DIR

The first form runs in this fresh interpreter.  It times ``import
segmt.cli`` plus ``build_parser()`` (set-up), then one ``segmt.cli.main``
call (the command, if one is given), and writes both, the exit code and its
own peak RSS (``VmHWM``, read at exit) to RESULT.json.  The command's stdout
and stderr pass through untouched.

The second form is a fork server for the timed loop.  It imports the
modules that the package imports from outside itself (numpy, PyYAML and
the standard library), never ``segmt``; for each request read from stdin it
forks a child that imports ``segmt`` anew and runs the command exactly as
the first form does.  Every command thus starts with cold package state
(module globals, ``lru_cache``s), as a CLI user sees it, without paying
interpreter start and the numpy import again.

With TRACE set to 1, every public function of the package is wrapped before
``main`` runs, and each call records a span (name, start, end, parent, work)
in memory.  The spans are written out with the result when the command has
finished.  After the command, the child replays every ``levenshtein_align``
call as an ``edit_distance`` call on the same inputs, so the parent can
separate the backtrace from the forward pass.
"""

import functools
import os
import sys
import time
import types

# Modules the package needs are imported only after the set-up timer starts
# (or in the fork server), so ``setup_s`` includes them.

# Per-token helpers: wrapping them would cost more than the work they do.
UNTRACED = {"segmt.text.normalize_token", "segmt.segment.ends_sentence"}
# Entry points timed by the child itself, not traced as spans.
ROOTS = {"segmt.cli.main", "segmt.cli.build_parser", "segmt.cli.entrypoint"}
DP = {"segmt.align.levenshtein_align", "segmt.align.edit_distance"}
# What the package imports from outside itself; the fork server loads these once.
PRELOAD = (
    "argparse", "collections", "dataclasses", "functools", "hashlib", "json", "math",
    "pathlib", "typing", "unicodedata", "numpy", "yaml",
)


def _ngram_count(args, kwargs) -> int:
    """Hypothesis n-grams a corpus_bleu call counts, from the input lengths."""
    hypotheses = args[0] if args else kwargs["hypotheses"]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    orders = cfg.max_ngram_order if cfg is not None else 4
    return sum(max(0, len(h) - n + 1) for h in hypotheses for n in range(1, orders + 1))


class Tracer:
    """Wraps the package's public functions where their callers look them up."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent span index, work]
        self.stack = []
        self.dp_calls = []  # (args, kwargs) of each levenshtein_align call, for the replay

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "segmt" or n.startswith("segmt.")]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType) or attr.startswith("_"):
                    continue
                if not value.__module__.startswith("segmt."):
                    continue
                qualname = f"{value.__module__}.{value.__name__}"
                if qualname in UNTRACED or qualname in ROOTS:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, qualname)
                setattr(module, attr, wrappers[id(value)])
                if qualname == "segmt.align.edit_distance":
                    self.edit_distance = value

    def _wrap(self, fn, qualname: str):
        name = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        module, _, func = qualname.rpartition(".")

        if qualname in DP:
            keep = qualname.endswith("levenshtein_align")

            def work(args, kwargs, result):
                if keep:
                    self.dp_calls.append((args, kwargs))
                return len(args[0]) * len(args[1])

        elif qualname == "segmt.bleu.corpus_bleu":

            def work(args, kwargs, result):
                return _ngram_count(args, kwargs)

        elif module == "segmt.formats" and func.startswith(("read_", "write_")):

            def work(args, kwargs, result):
                return os.path.getsize(args[0])

        else:
            work = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return wrapper

    def replay_seconds(self) -> float:
        """Time ``edit_distance`` on the inputs of every ``levenshtein_align`` call."""
        start = time.perf_counter()
        for args, kwargs in self.dp_calls:
            self.edit_distance(*args, **kwargs)
        return time.perf_counter() - start


def _peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def run(result_path: str, src: str, trace: bool, argv) -> None:
    start = time.perf_counter()
    sys.path.insert(0, src)
    from segmt import cli

    cli.build_parser()
    result = {"exit": None, "setup_s": time.perf_counter() - start}
    if argv:
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        result["exit"] = cli.main(argv)
        result["wall_s"] = time.perf_counter() - start
        sys.stdout.flush()
        sys.stderr.flush()
        result["peak_rss_kib"] = _peak_rss_kib()
        if tracer is not None:
            result["replay_s"] = tracer.replay_seconds()
            result["names"] = tracer.names
            result["spans"] = tracer.spans
    import json

    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def serve(src: str) -> None:
    """Fork one child per request line; answer with its pid, then its wait status."""
    import importlib
    import json
    import traceback

    for module in PRELOAD:
        importlib.import_module(module)

    with open("/proc/self/status", encoding="ascii") as handle:
        threads = [line for line in handle if line.startswith("Threads:")]
    if threads != ["Threads:\t1\n"]:
        raise SystemExit(f"fork server must be single-threaded, found {threads}")
    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                for fd, path in ((1, request["stdout"]), (2, request["stderr"])):
                    target = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                    os.dup2(target, fd)
                    os.close(target)
                run(request["result"], src, request["trace"], request["argv"])
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(status)
        print(json.dumps({"pid": pid}), flush=True)
        _, status = os.waitpid(pid, 0)
        print(json.dumps({"status": status}), flush=True)


def main() -> int:
    if sys.argv[1] == "--serve":
        serve(sys.argv[2])
        return 0
    result_path, src, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    run(result_path, src, trace, sys.argv[sys.argv.index("--") + 1 :])
    return 0


if __name__ == "__main__":
    sys.exit(main())
