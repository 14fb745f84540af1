"""The incremental state machine: atomic update operations, batches, checkpoints."""

from __future__ import annotations

import json
import warnings
from itertools import chain
from typing import NamedTuple

from . import engine
from .cache import ComponentCache
from .dimacs import declared_variables, read_dimacs
from .engine import EngineConfig, SearchStats
from .formula import FormulaState, clause_vars, normalize_clause


class PreconditionError(ValueError):
    """An atomic operation's precondition failed; names the offender."""


class ClauseNotFoundError(PreconditionError):
    pass


class DuplicateClauseWarning(UserWarning):
    pass


class BatchError(RuntimeError):
    """Wraps the failing op's error with its position; the batch rolled back."""

    def __init__(self, index, cause):
        super().__init__("batch op %d failed: %s" % (index, cause))
        self.index = index
        self.cause = cause


class UpdateOp(NamedTuple):
    """One atomic update. As a tuple it is cheap to build, and it compares
    equal to the plain tuple (kind, clause, var, path)."""

    kind: str
    clause: tuple = None
    var: int = None
    path: str = None

    @classmethod
    def add_clause(cls, lits):
        return cls("add_clause", clause=normalize_clause(lits))

    @classmethod
    def rem_clause(cls, lits):
        return cls("rem_clause", clause=normalize_clause(lits))

    @classmethod
    def add_var(cls, v):
        return cls("add_var", var=int(v))

    @classmethod
    def rem_var(cls, v):
        return cls("rem_var", var=int(v))

    @classmethod
    def reset(cls):
        return cls("reset")

    @classmethod
    def load(cls, path):
        return cls("load", path=path)


class UpdateBatch(NamedTuple):
    ops: list


class Session:
    """One evolving formula plus the engine and cache it shares."""

    def __init__(self, config=None):
        self.config = config or EngineConfig()
        self.state = FormulaState()
        self.cache = ComponentCache(self.config.cache_byte_budget)
        self.checkpoints = 0
        self.stats = SearchStats()
        self.last_count_stats = None
        # (count, active variables) of the last count that returned; the
        # engine's base for a delta count
        self._base = None

    # -- atomic operations ------------------------------------------------

    def apply_op(self, op):
        kind = op.kind
        state = self.state
        if kind == "add_clause":
            if not state.active_vars.issuperset(map(abs, op.clause)):
                missing = clause_vars(op.clause) - state.active_vars
                raise PreconditionError(
                    "add_clause %r: inactive variable %d" % (op.clause, min(missing)))
            if op.clause in state.clauses:
                warnings.warn("clause %r already present" % (op.clause,),
                              DuplicateClauseWarning, stacklevel=2)
            else:
                state.clauses.add(op.clause)
        elif kind == "rem_clause":
            if op.clause not in state.clauses:
                raise ClauseNotFoundError("rem_clause %r: no such clause" % (op.clause,))
            state.clauses.remove(op.clause)
        elif kind == "add_var":
            if op.var <= 0:
                raise PreconditionError("add_var: bad variable %r" % op.var)
            if op.var in state.active_vars:
                raise PreconditionError("add_var %d: already active" % op.var)
            state.active_vars.add(op.var)
        elif kind == "rem_var":
            if op.var not in state.active_vars:
                raise PreconditionError("rem_var %d: not active" % op.var)
            for c in state.clauses:
                if op.var in clause_vars(c):
                    raise PreconditionError(
                        "rem_var %d: occurs in clause %r" % (op.var, c))
            state.active_vars.remove(op.var)
        elif kind == "reset":
            state.active_vars.clear()
            state.clauses.clear()
        elif kind == "load":
            # expands to add_var per header variable then add_clause per
            # clause; a failure leaves the state as it was
            n_vars, clauses = read_dimacs(op.path)
            variables = declared_variables(n_vars)
            saved = state.copy()
            try:
                for v in variables:
                    self.apply_op(UpdateOp.add_var(v))
                for c in clauses:
                    self.apply_op(UpdateOp("add_clause", clause=c))
            except Exception:
                self.state = saved
                raise
            return self
        else:
            raise ValueError("unknown op kind %r" % kind)
        return self

    def replace_state(self, state):
        """Install a copy of `state` in place of the current one.

        Every clause is checked against `state.active_vars` before anything
        changes. The cache is kept, so later counts reuse it.
        """
        active = state.active_vars
        if not active.issuperset(map(abs, chain.from_iterable(state.clauses))):
            for c in state.clauses:
                missing = clause_vars(c) - active
                if missing:
                    raise PreconditionError(
                        "replace_state: clause %r uses inactive variable %d"
                        % (c, min(missing)))
        self.state = state.copy()
        return self

    def apply_batch(self, batch):
        """Apply ops in order; any failure restores the pre-batch state exactly."""
        ops = batch.ops if isinstance(batch, UpdateBatch) else list(batch)
        saved = self.state.copy()
        for i, op in enumerate(ops):
            try:
                self.apply_op(op)
            except Exception as exc:
                self.state = saved
                raise BatchError(i, exc) from exc
        return self

    # -- counting ---------------------------------------------------------

    def checkpoint_count(self):
        """Count the current state and add one to `checkpoints`.

        The base is cleared before the count and set only once it returns,
        so a count that raises leaves none behind for the next one.
        """
        base, self._base = self._base, None
        result = engine.count(self.state, self.config, self.cache, base)
        self._base = (result.count, frozenset(self.state.active_vars))
        self.checkpoints += 1
        self.stats.merge(result.stats)
        self.last_count_stats = result.stats
        return result.count

    def stats_lines(self):
        return [
            "c positiveHits %d" % self.stats.positive_hits,
            "c negativeHits %d" % self.stats.negative_hits,
            "c decisions %d" % self.stats.decisions,
            "c propagations %d" % self.stats.propagations,
            "c conflicts %d" % self.stats.conflicts,
            "c cacheEntries %d" % len(self.cache.entries),
            "c cacheBytes %d" % self.cache.bytes_used,
            "c evictions %d" % self.cache.evictions,
        ]

    def stats_record(self):
        last = self.last_count_stats or SearchStats()
        return {
            "checkpoint": self.checkpoints,
            "decisions": last.decisions,
            "propagations": last.propagations,
            "conflicts": last.conflicts,
            "positiveHits": last.positive_hits,
            "negativeHits": last.negative_hits,
            "cacheEntries": len(self.cache.entries),
            "cacheBytes": self.cache.bytes_used,
            "evictions": self.cache.evictions,
        }


class ScriptError(ValueError):
    """Malformed session-script command; carries the line number."""

    def __init__(self, message, line_no):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


def _parse_clause_command(parts, line_no):
    if not parts or parts[-1] != "0":
        raise ScriptError("clause command must end with 0", line_no)
    try:
        lits = [int(t) for t in parts[:-1]]
    except ValueError:
        raise ScriptError("bad literal token", line_no) from None
    if any(l == 0 for l in lits):
        raise ScriptError("literal 0 inside clause", line_no)
    return lits


def run_script(lines, session, out, stats_json=False):
    """Execute the session protocol; writes result lines to `out`.

    Commands: av/rv/ac/rc/reset/load/count/stats/quit. Every non-result
    line written is prefixed with "c ".
    """
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        parts = line.split()
        cmd, args = parts[0], parts[1:]
        if cmd == "quit":
            break
        if cmd == "av" or cmd == "rv":
            if len(args) != 1:
                raise ScriptError("%s expects one variable" % cmd, line_no)
            try:
                v = int(args[0])
            except ValueError:
                raise ScriptError("bad variable token", line_no) from None
            op = UpdateOp.add_var(v) if cmd == "av" else UpdateOp.rem_var(v)
            session.apply_op(op)
        elif cmd == "ac" or cmd == "rc":
            lits = _parse_clause_command(args, line_no)
            op = UpdateOp.add_clause(lits) if cmd == "ac" else UpdateOp.rem_clause(lits)
            session.apply_op(op)
        elif cmd == "reset":
            session.apply_op(UpdateOp.reset())
        elif cmd == "load":
            if len(args) != 1:
                raise ScriptError("load expects one path", line_no)
            session.apply_op(UpdateOp.load(args[0]))
        elif cmd == "count":
            value = session.checkpoint_count()
            out.write("%d %d\n" % (session.checkpoints, value))
            if stats_json:
                out.write("c json %s\n" % json.dumps(session.stats_record(),
                                                     sort_keys=True))
        elif cmd == "stats":
            for stats_line in session.stats_lines():
                out.write(stats_line + "\n")
        else:
            raise ScriptError("unknown command %r" % cmd, line_no)
    return session
