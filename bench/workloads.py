"""The benchmark's workloads: seeded inputs, the timed work, and its checks.

A workload runs in units. A unit is one generated input: it is set up
(parse, create the session, load the initial state), then runs one or more
ops, each one result the user sees. `OpTimer` takes the time of the set-up
and of each op. Input generation and checks happen between units, outside
the timed region. Every unit's inputs depend only on the seed and the
unit's position, so two passes over the same seed see the same inputs.

The program is called only through its public modules, and always through
the module attribute (`dimacs.parse_dimacs`, not a local import), so the
traced pass can wrap those calls from outside.
"""

from __future__ import annotations

import random
import sys
import time

from dyncount import argumentation, dimacs, formula, heuristics, session
from dyncount.engine import EngineConfig
from dyncount.session import UpdateBatch, UpdateOp

NO_OP = -1


class OpTimer:
    """Times set-ups and ops for one pass and tells the tracer the op id.

    An op's time is the gap between the end of the previous op (or of the
    set-up) and its own end, so it includes the update that precedes the
    count. `busy_s` sums, over all units, the last set-up and the ops
    that follow it. `per_unit` gives each unit's set-up and op times.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.setups = []
        self.durations = []
        self.busy_s = 0.0
        self.unit_ends = []
        self._begin = 0.0
        self._last = 0.0

    def _set_op(self, op_id):
        if self.tracer is not None:
            self.tracer.op_id = op_id

    def setup_begin(self):
        self._set_op(NO_OP)
        self._begin = self._last = time.perf_counter()

    def setup_end(self):
        now = time.perf_counter()
        self.setups.append(now - self._begin)
        self._last = now
        self._set_op(len(self.durations))

    def stamp(self):
        now = time.perf_counter()
        self.durations.append(now - self._last)
        self._last = now
        self._set_op(len(self.durations))

    def unit_end(self):
        self.busy_s += self._last - self._begin
        self.unit_ends.append((len(self.setups), len(self.durations)))
        self._set_op(NO_OP)

    def per_unit(self):
        """(set-up times, op times) of each unit, in the order they ran."""
        setups_begin = ops_begin = 0
        for setups_end, ops_end in self.unit_ends:
            yield (self.setups[setups_begin:setups_end],
                   self.durations[ops_begin:ops_end])
            setups_begin, ops_begin = setups_end, ops_end


def _batch_load(sess, variables, clauses):
    ops = [UpdateOp.add_var(v) for v in sorted(variables)]
    ops += [UpdateOp("add_clause", clause=c) for c in clauses]
    sess.apply_batch(UpdateBatch(ops))


def _fresh_count(variables, clauses):
    """Count in a new session that shares no cache with the one checked."""
    fresh = session.Session(EngineConfig(cache_mode="no_shared"))
    _batch_load(fresh, variables, formula.sort_clauses(clauses))
    return fresh.checkpoint_count()


def session_counters(sess, outputs):
    """Search and cache counters of a finished unit's session."""
    if sess is None:
        return {}
    stats = sess.stats
    cache = sess.cache
    return {
        "engine.decisions": stats.decisions,
        "engine.propagations": stats.propagations,
        "engine.conflicts": stats.conflicts,
        "cache.hits": stats.positive_hits,
        "cache.lookups": stats.positive_hits + stats.negative_hits,
        "cache.entries": len(cache.entries),
        "cache.model_bytes": cache.bytes_used,
        "cache.traced_bytes": cache_bytes(cache),
    }


def random_3cnf(rng, n_vars, n_clauses):
    """Distinct 3-literal clauses over distinct variables, in draw order."""
    seen = set()
    clauses = []
    while len(clauses) < n_clauses:
        vs = rng.sample(range(1, n_vars + 1), 3)
        clause = formula.normalize_clause(
            [v if rng.random() < 0.5 else -v for v in vs])
        if clause not in seen:
            seen.add(clause)
            clauses.append(clause)
    return clauses


def dimacs_text(n_vars, clauses):
    lines = ["p cnf %d %d" % (n_vars, len(clauses))]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


class CnfRemoval:
    """Load a random 3-CNF, then alternate one clause removal with one count.

    Ops: the first count, then one per removal. Checked by a recount of
    each state in a fresh no_shared session, and by the rule that removing
    a clause never lowers the count.
    """

    name = "cnf-removal"

    def __init__(self, config, n_vars, n_clauses, removals):
        self.config = config
        self.n_vars = n_vars
        self.n_clauses = n_clauses
        self.removals = removals

    def describe(self):
        return ("random 3-CNF, %d vars, %d clauses, %d removals, %d checkpoints"
                % (self.n_vars, self.n_clauses, self.removals, self.removals + 1))

    def planned_ops(self, inp):
        return len(inp[1]) + 1

    def generate(self, rng):
        clauses = random_3cnf(rng, self.n_vars, self.n_clauses)
        removals = rng.sample(clauses, self.removals)
        return dimacs_text(self.n_vars, clauses), removals

    def setup(self, inp):
        n_vars, clauses = dimacs.parse_dimacs(inp[0])
        sess = session.Session(self.config)
        _batch_load(sess, range(1, n_vars + 1), clauses)
        return sess

    def run(self, inp, sess, timer, outputs):
        outputs.append(sess.checkpoint_count())
        timer.stamp()
        for clause in inp[1]:
            sess.apply_op(UpdateOp.rem_clause(clause))
            outputs.append(sess.checkpoint_count())
            timer.stamp()
        return sess

    def check(self, inp, outputs):
        text, removals = inp
        n_vars, clauses = dimacs.parse_dimacs(text)
        variables = range(1, n_vars + 1)
        remaining = set(clauses)
        ok = []
        previous = 0
        for k, value in enumerate(outputs):
            if k:
                remaining.discard(removals[k - 1])
            ok.append(value >= previous
                      and _fresh_count(variables, remaining) == value)
            previous = value
        return ok

    def digest(self, outputs):
        return tuple(outputs)

    counters = staticmethod(session_counters)


class _StampedSession(session.Session):
    """A session that stamps the op timer each time a count returns."""

    timer = None

    def checkpoint_count(self):
        value = super().checkpoint_count()
        self.timer.stamp()
        return value


def random_af_text(rng, max_args):
    n = rng.randint(1, max_args)
    density = rng.uniform(0.0, 2.5)
    attacks = sorted({(rng.randint(1, n), rng.randint(1, n))
                      for _ in range(int(density * n))})
    return "p af %d\n" % n + "".join("%d %d\n" % pair for pair in attacks)


class AfDynamic:
    """`argumentation.dynamic_sequence` from a small random AF, fixed length.

    Ops: one per step (perturb, re-encode, reset, bulk re-add, count),
    timed from outside as the gap between consecutive count returns.
    Sequences have a fixed length because step cost grows with AF size.
    Every step is recounted in a fresh no_shared session; steps whose AF
    is small enough are also checked by brute-force enumeration.
    """

    name = "af-dynamic"

    def __init__(self, config, max_args, steps, brute_force_args):
        self.config = config
        self.max_args = max_args
        self.steps = steps
        self.brute_force_args = brute_force_args

    def describe(self):
        return ("dynamic_sequence, %d steps from a random AF of 1..%d arguments, "
                "default perturbation mix" % (self.steps, self.max_args))

    def planned_ops(self, inp):
        return self.steps

    def generate(self, rng):
        return random_af_text(rng, self.max_args), rng.randrange(1 << 30)

    def setup(self, inp):
        af = argumentation.parse_af(inp[0])
        sess = _StampedSession(self.config)
        encoded = argumentation.encode_complete(af)
        _batch_load(sess, encoded.active_vars, formula.sort_clauses(encoded.clauses))
        return af, sess

    def run(self, inp, state, timer, outputs):
        af, sess = state
        sess.timer = timer
        config = argumentation.PerturbationConfig(steps=self.steps, seed=inp[1])
        outputs.extend(argumentation.dynamic_sequence(af, config, sess))
        return sess

    def check(self, inp, outputs):
        ok = []
        for record in outputs:
            af = record.af
            good = True
            if len(af.arguments) <= self.brute_force_args:
                good = argumentation.enumerate_complete_bruteforce(af) == record.count
            encoded = argumentation.encode_complete(af)
            good = good and _fresh_count(encoded.active_vars, encoded.clauses) == record.count
            ok.append(good)
        return ok

    counters = staticmethod(session_counters)

    def digest(self, outputs):
        return tuple((r.step, r.tag, tuple(sorted(r.af.arguments)),
                      tuple(sorted(r.af.attacks)), r.count) for r in outputs)


def min_fill_width(vertices, edges):
    """Width of greedy min-fill elimination, ties to the smallest vertex.

    Written apart from `heuristics.compute_tree_decomposition`, with the
    same documented rule, as the width check for td-width. Neighbourhoods
    are bitsets over vertex positions; eliminating v changes the fill of
    v's neighbours and of their neighbours only, so only those are
    recomputed.
    """
    order = sorted(vertices)
    pos = {v: i for i, v in enumerate(order)}
    adj = [0] * len(order)
    for u, v in edges:
        adj[pos[u]] |= 1 << pos[v]
        adj[pos[v]] |= 1 << pos[u]

    def members(bits):
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def fill(i):
        ns = adj[i]
        d = ns.bit_count()
        return d * (d - 1) // 2 - sum((adj[a] & ns).bit_count()
                                      for a in members(ns)) // 2

    fills = {i: fill(i) for i in range(len(order))}
    width = 0
    while fills:
        best = min(fills, key=lambda i: (fills[i], i))
        del fills[best]
        ns = adj[best]
        width = max(width, ns.bit_count())
        touched = ns
        for a in members(ns):
            adj[a] = (adj[a] | ns) & ~(1 << a) & ~(1 << best)
            touched |= adj[a]
        for w in members(touched):
            if w in fills:
                fills[w] = fill(w)
    return width


class TdWidth:
    """Primal graph plus min-fill tree decomposition of a random 3-CNF.

    One op per formula: the work behind `dyncount td`. A formula has n
    variables, n drawn uniformly from a range, and 2n clauses. Op time
    follows the width, a small integer, so at one fixed n the times bunch
    up by width and their median jumps between bunches from run to run;
    drawing n spreads them out. Checked by `td_valid_for` against an
    independently built primal graph and by an equal width from
    `min_fill_width`.
    """

    name = "td-width"

    def __init__(self, config, min_vars, max_vars):
        self.config = config
        self.min_vars = min_vars
        self.max_vars = max_vars

    def describe(self):
        return ("random 3-CNF, %d-%d vars, twice as many clauses"
                % (self.min_vars, self.max_vars))

    def planned_ops(self, inp):
        return 1

    def generate(self, rng):
        n = rng.randint(self.min_vars, self.max_vars)
        return dimacs_text(n, random_3cnf(rng, n, 2 * n))

    def setup(self, inp):
        return dimacs.parse_dimacs(inp)[1]

    def run(self, inp, clauses, timer, outputs):
        graph = formula.primal_graph(clauses)
        outputs.append(heuristics.compute_tree_decomposition(graph))
        timer.stamp()
        return None

    def check(self, inp, outputs):
        _, clauses = dimacs.parse_dimacs(inp)
        vertices = {abs(l) for c in clauses for l in c}
        edges = {(min(abs(a), abs(b)), max(abs(a), abs(b)))
                 for c in clauses for a in c for b in c if abs(a) != abs(b)}
        graph = formula.PrimalGraph(frozenset(vertices), frozenset(edges))
        width = min_fill_width(vertices, edges)
        return [heuristics.td_valid_for(td, graph) and td.width == width
                for td in outputs]

    def digest(self, outputs):
        return tuple((td.width, len(td.bags)) for td in outputs)

    def counters(self, sess, outputs):
        return {"heuristics.td_width": outputs[0].width} if outputs else {}


SHAPES = {
    "default": {
        "cnf-removal": dict(n_vars=20, n_clauses=84, removals=24),
        "af-dynamic": dict(max_args=12, steps=50, brute_force_args=10),
        "td-width": dict(min_vars=50, max_vars=70),
    },
    "tiny": {
        "cnf-removal": dict(n_vars=10, n_clauses=42, removals=6),
        "af-dynamic": dict(max_args=5, steps=6, brute_force_args=10),
        "td-width": dict(min_vars=10, max_vars=14),
    },
}

WORKLOADS = {cls.name: cls for cls in (CnfRemoval, AfDynamic, TdWidth)}


def make_workload(name, size, config):
    return WORKLOADS[name](config, **SHAPES[size][name])


def unit_inputs(workload, seed):
    """Endless stream of unit inputs; unit i depends only on (seed, i)."""
    master = random.Random(seed)
    while True:
        yield workload.generate(random.Random(master.getrandbits(64)))


def cache_bytes(cache):
    """Bytes the cache's dict, keys and entries occupy, walked object by object."""
    seen = set()
    total = 0
    stack = [cache.entries]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (tuple, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
    return total
