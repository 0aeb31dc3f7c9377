"""Run one ``catalocc`` command from the checkout's ``src/``.

    python3 perfbench/launcher.py [--trace SPANS.jsonl.gz] -- <catalocc arguments>

Without ``--trace`` this is the ``catalocc`` console script.  With it, the
launcher installs the benchmark's span wrappers before calling
``catalocc.cli.main`` and writes the spans to SPANS when the command exits;
the first span, ``startup``, runs from process start to the end of
``import catalocc.cli``.
"""

import time

T_START = time.perf_counter_ns()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> None:
    args = sys.argv[1:]
    trace_file = None
    if args[:1] == ["--trace"]:
        trace_file, args = Path(args[1]), args[2:]
    if args[:1] == ["--"]:
        args = args[1:]

    import catalocc.cli

    if trace_file is None:
        catalocc.cli.main(args=args, prog_name="catalocc")
        return

    from tracing import Tracer, write_spans

    tracer = Tracer()
    tracer.spans.append((0, 0, "startup", T_START, time.perf_counter_ns(), None))
    tracer.install()
    tracer.wrap_cli_commands(catalocc.cli.main)
    try:
        catalocc.cli.main(args=args, prog_name="catalocc")
    finally:
        tracer.uninstall()
        write_spans(trace_file, tracer.spans)


if __name__ == "__main__":
    main()
