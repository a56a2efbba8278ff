"""One `concord` process of the reports workload.

    python3 perfbench/child.py [--trace-out FILE --op N] -- <concord arguments>

Runs ``concord.cli.main`` as the installed ``concord`` script does.  With
--trace-out the span wrappers are installed before ``cli.main`` runs and
the spans are written to FILE when the process ends.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main():
    args = sys.argv[1:]
    split = args.index("--")
    opts, cli_args = args[:split], args[split + 1:]
    if not opts:
        from concord.cli import main as cli_main
        return cli_main(cli_args)
    sys.path.insert(0, str(HERE))
    import tracing

    tracer = tracing.Tracer()
    tracer.op = int(opts[opts.index("--op") + 1])
    tracer.install()
    from concord import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(opts[opts.index("--trace-out") + 1])


if __name__ == "__main__":
    sys.exit(main())
