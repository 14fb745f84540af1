"""Dynamic-argumentation workload: AF parsing, complete-semantics encoding,
seeded perturbations and a brute-force extension oracle."""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .formula import HEADER_LIMIT, FormulaState

BRUTE_FORCE_ARG_LIMIT = 16


class AfParseError(ValueError):
    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = "line %d: %s" % (line_no, message)
        super().__init__(message)
        self.line_no = line_no


class ArgumentationFramework(NamedTuple):
    arguments: frozenset
    attacks: frozenset  # ordered (attacker, target) pairs; self-attacks allowed

    def attackers_of(self):
        by_target = {a: set() for a in self.arguments}
        for b, a in self.attacks:
            by_target[a].add(b)
        return by_target


def parse_af(text):
    """ICCMA'23 format: header "p af <n>", then one "<attacker> <target>" per line."""
    n = None
    attacks = set()
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise AfParseError("duplicate header", line_no)
            parts = line.split()
            if len(parts) != 3 or parts[1] != "af":
                raise AfParseError("expected 'p af <n>'", line_no)
            try:
                n = int(parts[2])
            except ValueError:
                raise AfParseError("non-integer argument count", line_no) from None
            if n < 0:
                raise AfParseError("negative argument count", line_no)
            if n > HEADER_LIMIT:
                raise AfParseError("argument count %d above the limit of %d"
                                   % (n, HEADER_LIMIT), line_no)
            continue
        if n is None:
            raise AfParseError("attack before header", line_no)
        parts = line.split()
        if len(parts) != 2:
            raise AfParseError("expected '<attacker> <target>'", line_no)
        try:
            b, a = int(parts[0]), int(parts[1])
        except ValueError:
            raise AfParseError("non-integer attack endpoint", line_no) from None
        if not (1 <= b <= n and 1 <= a <= n):
            raise AfParseError("attack endpoint outside 1..%d" % n, line_no)
        attacks.add((b, a))
    if n is None:
        raise AfParseError("missing header")
    return ArgumentationFramework(frozenset(range(1, n + 1)), frozenset(attacks))


def read_af(path):
    with open(path) as fh:
        return parse_af(fh.read())


def accepted_var(a):
    """CNF variable for "argument a is in the extension"."""
    return 2 * a - 1


def attacked_var(b):
    """Auxiliary variable for "some extension member attacks b"."""
    return 2 * b


def encode_complete(af):
    """CNF whose model count equals the number of complete extensions.

    One variable per argument, plus one defined auxiliary per attacker
    that is itself attacked; auxiliaries are functionally determined so
    they do not inflate the count. Surviving arguments keep their
    variables across perturbation steps.

    Clauses are built directly in `lit_key` order. Argument a has
    x_a = 2a - 1 and auxiliary d_b = 2b, so x_a precedes x_b exactly when
    a < b, x_a precedes d_b exactly when a <= b, and a long clause splits
    its sorted argument list at one `bisect`.
    """
    # the attackers of each attacked argument; an argument that is not a
    # key here has none, and costs no empty set
    attackers = {}
    for b, a in af.attacks:
        attackers.setdefault(a, set()).add(b)
    # d_b is referenced only for attackers b; if b is unattacked the
    # defense condition on b is plainly false and d_b is not created
    has_aux = {b for b, _ in af.attacks if b in attackers}

    clauses = set()
    add = clauses.add
    for b, a in af.attacks:
        xa, xb = 2 * a - 1, 2 * b - 1
        if a == b:
            add((-xa,))
        else:
            add((-xa, -xb) if a < b else (-xb, -xa))
        if b in has_aux:
            add((-xa, 2 * b) if a <= b else (2 * b, -xa))
        else:
            add((-xa,))
    for b in has_aux:
        members = sorted(attackers[b])
        xs = [2 * c - 1 for c in members]
        split = bisect_right(members, b)
        add((*xs[:split], -2 * b, *xs[split:]))
        for c, xc in zip(members, xs):
            add((-xc, 2 * b) if c <= b else (2 * b, -xc))
    for a in af.arguments:
        atk = attackers.get(a)
        if atk is None:
            add((2 * a - 1,))
        elif atk <= has_aux:
            atk = sorted(atk)
            ds = [-2 * b for b in atk]
            split = bisect_left(atk, a)
            add((*ds[:split], 2 * a - 1, *ds[split:]))
        # else: some attacker of a can never be counter-attacked, the
        # completeness clause is vacuously true and is omitted

    variables = {accepted_var(a) for a in af.arguments}
    variables |= {attacked_var(b) for b in has_aux}
    return FormulaState(variables, clauses)


def enumerate_complete_bruteforce(af):
    """Count complete extensions by checking every argument subset.

    Arguments are bit positions in their sorted order. For a subset S,
    `attacked[S]` is the union of the targets of S's members; S is
    complete when it attacks none of its own members and is exactly the
    set of arguments whose attackers all lie in `attacked[S]`.
    """
    args = sorted(af.arguments)
    n = len(args)
    if n > BRUTE_FORCE_ARG_LIMIT:
        raise ValueError("%d arguments exceed the guard of %d"
                         % (n, BRUTE_FORCE_ARG_LIMIT))
    pos = {a: i for i, a in enumerate(args)}
    targets = [0] * n        # targets[i]: mask of the arguments args[i] attacks
    attackers = [0] * n      # attackers[i]: mask of the attackers of args[i]
    for b, a in af.attacks:
        targets[pos[b]] |= 1 << pos[a]
        attackers[pos[a]] |= 1 << pos[b]
    attacked = [0]   # attacked[S]: the union of the targets of S's members
    for subset in range(1, 1 << n):
        low = subset & -subset
        attacked.append(attacked[subset ^ low] | targets[low.bit_length() - 1])
    count = 0
    for subset, hit in enumerate(attacked):
        if hit & subset:
            continue
        for i, atk in enumerate(attackers):
            # args[i] is defended by S exactly when all its attackers are hit
            if (atk & hit == atk) != (subset >> i & 1):
                break
        else:
            count += 1
    return count


# the perturbation operations and their draw probabilities, in draw order
OPERATIONS = (("delete_argument", 0.10), ("add_argument", 0.20),
              ("delete_attacks", 0.40), ("add_attacks", 0.30))


class PerturbationConfig(NamedTuple):
    steps: int = 1000
    seed: int = 0


def _applicable(tag, af):
    if tag == "add_argument":
        return True
    if tag == "delete_argument":
        return bool(af.arguments)
    if tag == "delete_attacks":
        return bool(af.attacks)
    if tag == "add_attacks":
        n = len(af.arguments)
        return n > 0 and len(af.attacks) < n * n
    raise ValueError(tag)


def perturb(af, rng):
    """Apply one operation drawn from `OPERATIONS`; redraws when it cannot apply."""
    for _ in range(64):
        roll = rng.random()
        acc = 0.0
        tag = OPERATIONS[-1][0]
        for t, w in OPERATIONS:
            acc += w
            if roll < acc:
                tag = t
                break
        if _applicable(tag, af):
            break
    else:
        tag = "add_argument"

    args = set(af.arguments)
    attacks = set(af.attacks)
    if tag == "delete_argument":
        v = rng.choice(sorted(args))
        args.remove(v)
        attacks = {(b, a) for b, a in attacks if b != v and a != v}
    elif tag == "add_argument":
        fresh = max(args, default=0) + 1
        k = rng.randint(1, 3)
        targets = rng.sample(sorted(args), min(k, len(args)))
        args.add(fresh)
        attacks.update((fresh, t) for t in targets)
    elif tag == "delete_attacks":
        k = rng.randint(1, 3)
        for pair in rng.sample(sorted(attacks), min(k, len(attacks))):
            attacks.remove(pair)
    else:  # add_attacks
        order = sorted(args)
        absent = [(b, a) for b in order for a in order if (b, a) not in attacks]
        k = rng.randint(1, 3)
        attacks.update(rng.sample(absent, min(k, len(absent))))
    return ArgumentationFramework(frozenset(args), frozenset(attacks)), tag


class StepRecord(NamedTuple):
    step: int
    tag: str
    af: ArgumentationFramework
    count: int
    stats: dict     # the session's stats_record() right after this count


def dynamic_sequence(af, config, session):
    """Perturb, re-encode and recount per step through one shared session.

    Each transition replaces the session's state with the new encoding;
    the persistent cache survives every replacement in shared modes.
    """
    rng = random.Random(config.seed)
    records = []
    current = af
    for step in range(1, config.steps + 1):
        current, tag = perturb(current, rng)
        session.replace_state(encode_complete(current))
        count = session.checkpoint_count()
        records.append(StepRecord(step, tag, current, count,
                                  session.stats_record()))
    return records
