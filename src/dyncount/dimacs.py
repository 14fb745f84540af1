"""DIMACS CNF reading."""

from __future__ import annotations

from .formula import HEADER_LIMIT, FormulaState

# body lines tokenized by one `split`; bounds the temporaries on large files
_BLOCK_LINES = 4096


class DimacsError(ValueError):
    """Malformed DIMACS input; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = "line %d: %s" % (line_no, message)
        super().__init__(message)
        self.line_no = line_no


def parse_dimacs(text):
    """Parse CNF text into (n_vars, ordered clause list).

    Clauses are normalized; their file order is preserved. Literal tokens
    may span lines, each clause ends with 0. A malformed text raises the
    DimacsError of its first fault in file order.

    One pass over the lines reads the header and collects the clause
    lines. Each block of them is then turned into literals by one `split`
    and one `map(int, ...)`, range-checked by `max` and `min`, and cut
    into clauses at its zeros. The bulk pass keeps no line numbers, so when
    it finds a fault, `_token_error` walks the lines again to name it.
    """
    lines = text.splitlines()
    n_vars = n_clauses = None
    body = []
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line[0] == "c":
            continue
        if line[0] == "p":
            if n_vars is not None:
                raise (_token_error(lines[:line_no], n_vars)
                       or DimacsError("duplicate header", line_no))
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError("expected 'p cnf <nVars> <nClauses>'", line_no)
            try:
                n_vars, n_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError("non-integer header fields", line_no) from None
            if n_vars < 0 or n_clauses < 0:
                raise DimacsError("negative header fields", line_no)
        elif n_vars is None:
            raise DimacsError("clause before header", line_no)
        else:
            body.append(line)
    if n_vars is None:
        raise DimacsError("missing header")
    clauses = []
    open_lits = []
    for start in range(0, len(body), _BLOCK_LINES):
        open_lits = _cut_clauses(body[start:start + _BLOCK_LINES], open_lits,
                                 n_vars, clauses)
        if open_lits is None:
            raise _token_error(lines, n_vars)
    if open_lits:
        raise DimacsError("unterminated clause at end of file")
    if len(clauses) != n_clauses:
        raise DimacsError("header announced %d clauses, found %d"
                          % (n_clauses, len(clauses)))
    return n_vars, clauses


def _cut_clauses(block, open_lits, n_vars, clauses):
    """Append to `clauses` every clause that ends in the clause lines `block`.

    `open_lits` are the literals of a clause that an earlier block left
    open. Returns the literals this block leaves open, or None when one of
    its tokens is not an integer or names a variable above `n_vars`.

    A clause is normalized without a key function written in Python:
    sorting by value puts -v before v, and the stable sort by `abs` then
    gives `lit_key` order.
    """
    try:
        lits = list(map(int, " ".join(block).split()))
    except ValueError:
        return None
    if lits and (max(lits) > n_vars or min(lits) < -n_vars):
        return None
    if open_lits:
        lits = open_lits + lits
    index = lits.index
    append = clauses.append
    start = 0
    for _ in range(lits.count(0)):
        end = index(0, start)
        clause = sorted(set(lits[start:end]))
        clause.sort(key=abs)
        append(tuple(clause))
        start = end + 1
    return lits[start:]


def _token_error(lines, n_vars):
    """The first bad token or out-of-range literal in the clause lines of
    `lines`, as a DimacsError with its line number, or None.

    A token-by-token walk: `parse_dimacs` takes it only on the error path.
    Every line it reads lies after the one header.
    """
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line[0] in "cp":
            continue
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                return DimacsError("bad token %r" % tok, line_no)
            if abs(lit) > n_vars:
                return DimacsError("literal %d exceeds header" % lit, line_no)
    return None


def read_dimacs(path):
    with open(path) as fh:
        return parse_dimacs(fh.read())


def declared_variables(n_vars):
    """The variables 1..n_vars that a header declares, as a range.

    Callers expand it into a set, so a header above HEADER_LIMIT is
    refused here, before anything is allocated.
    """
    if n_vars > HEADER_LIMIT:
        raise DimacsError("header declares %d variables, above the limit of %d"
                          % (n_vars, HEADER_LIMIT))
    return range(1, n_vars + 1)


def state_from_dimacs(text):
    """FormulaState with active variables 1..nVars even when non-occurring."""
    n_vars, clauses = parse_dimacs(text)
    return FormulaState(set(declared_variables(n_vars)), set(clauses))
