"""DIMACS CNF reading."""

from __future__ import annotations

from .formula import FormulaState, normalize_clause


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
    may span lines, each clause ends with 0.
    """
    n_vars = None
    n_clauses = None
    clauses = []
    current = []
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n_vars is not None:
                raise DimacsError("duplicate header", line_no)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError("expected 'p cnf <nVars> <nClauses>'", line_no)
            try:
                n_vars, n_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError("non-integer header fields", line_no) from None
            if n_vars < 0 or n_clauses < 0:
                raise DimacsError("negative header fields", line_no)
            continue
        if n_vars is None:
            raise DimacsError("clause before header", line_no)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError("bad token %r" % tok, line_no) from None
            if lit == 0:
                clauses.append(normalize_clause(current))
                current = []
            else:
                if abs(lit) > n_vars:
                    raise DimacsError("literal %d exceeds header" % lit, line_no)
                current.append(lit)
    if current:
        raise DimacsError("unterminated clause at end of file")
    if n_vars is None:
        raise DimacsError("missing header")
    if n_clauses is not None and len(clauses) != n_clauses:
        raise DimacsError("header announced %d clauses, found %d"
                          % (n_clauses, len(clauses)))
    return n_vars, clauses


def read_dimacs(path):
    with open(path) as fh:
        return parse_dimacs(fh.read())


def state_from_dimacs(text):
    """FormulaState with active variables 1..nVars even when non-occurring."""
    n_vars, clauses = parse_dimacs(text)
    return FormulaState(set(range(1, n_vars + 1)), set(clauses))
