"""Command-line surface for scripts and harnesses.

Exit codes:
  0  success;
  1  usage error, including a flag the subcommand does not take;
  2  input error: an unreadable or malformed file or script, an update
     whose precondition fails, or a header that declares more than
     `formula.HEADER_LIMIT` (1,000,000) variables or arguments;
  3  out of memory.
Result lines go to stdout; every other stdout line is prefixed "c ".
Diagnostics (`error:` and `warning:` lines) go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import warnings

from .argumentation import (AfParseError, PerturbationConfig, dynamic_sequence,
                            encode_complete, read_af)
from .dimacs import (DimacsError, declared_variables, parse_dimacs, read_dimacs,
                     state_from_dimacs)
from .engine import EngineConfig
from .formula import FormulaState, primal_graph
from .heuristics import compute_tree_decomposition
from .session import (DuplicateClauseWarning, PreconditionError, ScriptError,
                      Session, run_script)
from .softcore import SoftCoreConfig, compute_soft_core

_MODE_NAMES = {"noshared": "no_shared", "shared": "shared"}


def _positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer: %r" % text)
    return value


def _non_negative_float(text):
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError("must be a finite number >= 0: %r" % text)
    return value


class _UsageError(Exception):
    """A usage error: its text is the usage line and the `error:` line."""


class _HelpRequested(Exception):
    """`--help` or `-h`: its text is the help message."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError("%s%s: error: %s\n"
                          % (self.format_usage(), self.prog, message))

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


# every flag a subcommand may take, with its argparse settings
_FLAGS = {
    "--mode": dict(choices=sorted(_MODE_NAMES), default="shared"),
    "--cache-bytes": dict(type=_positive_int, default=512 * 1024 * 1024),
    "--seed": dict(type=int, default=0),
    "--stats": dict(action="store_true"),
    "--stats-json": dict(action="store_true"),
    "--delta": dict(type=_non_negative_float, default=0.20),
    "--steps": dict(type=_positive_int, default=1000),
}


def _build_parser():
    parser = _Parser(prog="dyncount",
                     description="incremental exact model counter")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        # no abbreviations: `session --stats` would be read as --stats-json
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        if name == "session":
            p.add_argument("script", nargs="?")
        else:
            p.add_argument("file")
    return parser


def _make_session(args):
    config = EngineConfig(cache_mode=_MODE_NAMES[args.mode],
                          cache_byte_budget=args.cache_bytes)
    return Session(config)


def _emit_stats(session, args, out):
    if args.stats:
        for line in session.stats_lines():
            out.write(line + "\n")


def _count_state(state, args, out):
    """Count `state` once in a fresh session and write `1 <count>`, then
    the `c json` record under `--stats-json`, then the `--stats` lines."""
    session = _make_session(args)
    session.replace_state(state)
    out.write("1 %d\n" % session.checkpoint_count())
    if args.stats_json:
        out.write("c json %s\n" % json.dumps(session.stats_record(), sort_keys=True))
    _emit_stats(session, args, out)


def _cmd_count(args, out):
    with open(args.file) as fh:
        state = state_from_dimacs(fh.read())
    _count_state(state, args, out)


def _cmd_session(args, out):
    session = _make_session(args)
    if args.script:
        with open(args.script) as fh:
            lines = fh.read().splitlines()
    else:
        lines = sys.stdin.read().splitlines()
    run_script(lines, session, out, stats_json=args.stats_json)


def _cmd_softcore(args, out):
    session = _make_session(args)
    with open(args.file) as fh:
        n_vars, ordered = parse_dimacs(fh.read())
    state = FormulaState(set(declared_variables(n_vars)), set(ordered))
    config = SoftCoreConfig(delta=args.delta)
    result = compute_soft_core(state, config, session, order=ordered)
    out.write("c base %d\n" % result.base_count)
    out.write("c threshold %d\n" % result.threshold)
    for step in result.per_step:
        out.write("c step %d %d %s\n"
                  % (step.index, step.count,
                     "accepted" if step.accepted else "rejected"))
    out.write("c final %d\n" % result.final_count)
    out.write("core %s\n" % " ".join(str(i) for i in sorted(result.kept_indices)))
    out.write("removed %s\n"
              % " ".join(str(i) for i in sorted(result.removed_indices)))
    _emit_stats(session, args, out)


def _cmd_af_count(args, out):
    _count_state(encode_complete(read_af(args.file)), args, out)


def _cmd_af_dynamic(args, out):
    session = _make_session(args)
    af = read_af(args.file)
    config = PerturbationConfig(steps=args.steps, seed=args.seed)
    records = dynamic_sequence(af, config, session)
    for record in records:
        out.write("c op %s\n" % record.tag)
        out.write("%d %d\n" % (record.step, record.count))
        if args.stats_json:
            out.write("c json %s\n" % json.dumps(record.stats, sort_keys=True))
    _emit_stats(session, args, out)


def _cmd_td(args, out):
    _, clauses = read_dimacs(args.file)
    td = compute_tree_decomposition(primal_graph(clauses))
    out.write("width %d\n" % td.width)
    out.write("bags %d\n" % len(td.bags))


# subcommand -> (handler, the flags the handler reads); any other flag is
# a usage error
_COMMANDS = {
    "count": (_cmd_count, ("--mode", "--cache-bytes", "--stats", "--stats-json")),
    "session": (_cmd_session, ("--mode", "--cache-bytes", "--stats-json")),
    "softcore": (_cmd_softcore, ("--mode", "--cache-bytes", "--stats", "--delta")),
    "af-count": (_cmd_af_count, ("--mode", "--cache-bytes", "--stats", "--stats-json")),
    "af-dynamic": (_cmd_af_dynamic, ("--mode", "--cache-bytes", "--seed", "--stats",
                                     "--stats-json", "--steps")),
    "td": (_cmd_td, ()),
}


@contextlib.contextmanager
def _any_int_length():
    """Lift Python's limit on the digits of an int printed in decimal.

    Counts can have more than the default 4300 digits. The limit (absent
    before Python 3.10.7) is restored on exit.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@contextlib.contextmanager
def _duplicate_warnings_to(err):
    """Write each DuplicateClauseWarning raised inside as a `warning:` line on `err`.

    Other warnings are shown as before.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("always", DuplicateClauseWarning)
        show = warnings.showwarning

        def show_on_err(message, category, *args, **kwargs):
            if issubclass(category, DuplicateClauseWarning):
                err.write("warning: %s\n" % message)
            else:
                show(message, category, *args, **kwargs)

        warnings.showwarning = show_on_err
        yield


def run(argv, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        err.write(str(exc))
        return 1
    except _HelpRequested as exc:
        out.write(str(exc))
        return 0
    try:
        with _any_int_length(), _duplicate_warnings_to(err):
            _COMMANDS[args.command][0](args, out)
    except (DimacsError, AfParseError, ScriptError, PreconditionError,
            UnicodeDecodeError) as exc:
        err.write("error: %s\n" % exc)
        return 2
    except MemoryError as exc:
        err.write("error: %s\n" % (str(exc) or "out of memory"))
        return 3
    except OSError as exc:
        err.write("error: %s\n" % exc)
        return 2
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
