"""Plain-text serialization for fields, codes, pairs, and concatenation configs.

Formats (all whitespace-separated decimal integers, parsed as token streams):

* field line:      ``p e m_0 ... m_e``        (modulus low-degree first)
* extension line:  ``k f_0 ... f_k``          (over the preceding field)
* matrix:          ``rows cols`` then row-major element codes; more than
                   :data:`LENGTH_CAP` columns raise TooLarge before anything
                   is read or allocated
* code file:       field line, then generator matrix
* pair file:       field line, generator of C1, generator of C2,
                   optionally the k coset-generator rows g1
* concat config:   first line = path of the inner pair file (relative to the
                   config file), then an extension line, then ``N K1 K2``
* vector:          element codes

Every reader consumes its whole input through :class:`_Tokens`, and a config
has exactly three non-blank lines: a missing, non-integer or leftover token
raises DomainError, and codes are built only once their file has parsed.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .codes import CssPair, LinearCode
from .errors import DomainError, TooLarge
from .galois import Extension, Field
from .matrix import as_codes

# Most columns of a matrix in a file, checked before its entries are read: a
# code gets an n x n null space.  2^16 admits nN = 57330 of [[57330,24564]],
# the longest concatenated code built in CI.
LENGTH_CAP = 1 << 16


class _Tokens:
    def __init__(self, text):
        self.toks = text.split()
        self.pos = 0

    def take(self, n=1):
        if self.pos + n > len(self.toks):
            raise DomainError("unexpected end of file")
        out = self.toks[self.pos: self.pos + n]
        self.pos += n
        return out

    def take_ints(self, n):
        try:
            return [int(t) for t in self.take(n)]
        except ValueError as exc:
            raise DomainError(f"expected integer token: {exc}") from exc

    @property
    def exhausted(self):
        return self.pos >= len(self.toks)

    def end(self):
        if not self.exhausted:
            raise DomainError(f"unexpected token {self.toks[self.pos]!r} after the data")


def parse(text, read):
    """``read(tokens)`` on the tokens of ``text``, which it must consume."""
    toks = _Tokens(text)
    out = read(toks)
    toks.end()
    return out


def field_to_line(field: Field) -> str:
    return " ".join(str(x) for x in (field.p, field.e, *field.modulus))


def field_from_tokens(toks: _Tokens) -> Field:
    p, e = toks.take_ints(2)
    modulus = tuple(toks.take_ints(e + 1))
    return Field(p, e, modulus)


def extension_to_line(ext: Extension) -> str:
    return " ".join(str(x) for x in (ext.k, *ext.f))


def extension_from_tokens(field: Field, toks: _Tokens) -> Extension:
    k = toks.take_ints(1)[0]
    f = tuple(toks.take_ints(k + 1))
    return Extension(field, k, f)


def matrix_from_tokens(field, toks: _Tokens) -> np.ndarray:
    rows, cols = toks.take_ints(2)
    if rows < 0 or cols < 0:
        raise DomainError("negative matrix dimensions")
    if rows and not cols:
        raise DomainError("a matrix with rows has no columns")
    if cols > LENGTH_CAP:
        raise TooLarge(f"a matrix of {cols} columns exceeds the length cap {LENGTH_CAP}")
    vals = toks.take_ints(rows * cols)
    a = np.array(vals, dtype=np.int64).reshape(rows, cols)
    return as_codes(field, a)


def matrix_to_text(M) -> str:
    M = np.asarray(M, dtype=np.int64)
    lines = [f"{M.shape[0]} {M.shape[1]}"]
    for row in M:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


# -- code and pair files -----------------------------------------------------

def write_code(path, code: LinearCode) -> None:
    with open(path, "w") as fh:
        fh.write(field_to_line(code.field) + "\n")
        fh.write(matrix_to_text(code.G))


def read_code(path) -> LinearCode:
    toks = _Tokens(Path(path).read_text())
    f = field_from_tokens(toks)
    G = matrix_from_tokens(f, toks)
    toks.end()
    return LinearCode(f, G)


def write_pair(path, pair: CssPair) -> None:
    with open(path, "w") as fh:
        fh.write(field_to_line(pair.field) + "\n")
        fh.write(matrix_to_text(pair.C1.G))
        fh.write(matrix_to_text(pair.C2.G))
        fh.write(matrix_to_text(pair.g1))


def read_pair(path) -> CssPair:
    toks = _Tokens(Path(path).read_text())
    f = field_from_tokens(toks)
    G1, G2 = matrix_from_tokens(f, toks), matrix_from_tokens(f, toks)
    g1 = None if toks.exhausted else matrix_from_tokens(f, toks)
    toks.end()
    return CssPair.build(LinearCode(f, G1), LinearCode(f, G2), g1)


# -- concatenation config ----------------------------------------------------

def write_concat_config(path, inner_pair_path, ext: Extension, N, K1, K2) -> None:
    with open(path, "w") as fh:
        fh.write(str(inner_pair_path) + "\n")
        fh.write(extension_to_line(ext) + "\n")
        fh.write(f"{N} {K1} {K2}\n")


def read_concat_config(path):
    """Returns ``(inner CssPair, Extension, N, K1, K2)``."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    if len(lines) != 3:
        raise DomainError(f"a concat config has 3 lines, not {len(lines)}")
    inner_path = lines[0]
    if not os.path.isabs(inner_path):
        inner_path = os.path.join(os.path.dirname(os.path.abspath(path)), inner_path)
    inner = read_pair(inner_path)
    ext = parse(lines[1], lambda toks: extension_from_tokens(inner.field, toks))
    N, K1, K2 = parse(lines[2], lambda toks: toks.take_ints(3))
    if min(N, K1, K2) < 0:
        raise DomainError("negative concat dimensions")
    return inner, ext, N, K1, K2


def write_vector(path, v) -> None:
    v = np.asarray(v, dtype=np.int64).reshape(-1)
    with open(path, "w") as fh:
        fh.write(" ".join(str(int(x)) for x in v) + "\n")


def read_vector(path) -> np.ndarray:
    toks = _Tokens(Path(path).read_text())
    return np.array(toks.take_ints(len(toks.toks)), dtype=np.int64)
