"""Plain-text serialization for fields, codes, pairs, and concatenation configs.

Formats (all whitespace-separated decimal integers, parsed as token streams):

* field line:      ``p e m_0 ... m_e``        (modulus low-degree first)
* extension line:  ``k f_0 ... f_k``          (over the preceding field)
* matrix:          ``rows cols`` then row-major element codes
* code file:       field line, then generator matrix
* pair file:       field line, generator of C1, generator of C2,
                   optionally the k coset-generator rows g1
* concat config:   first line = path of the inner pair file (relative to the
                   config file), then an extension line, then ``N K1 K2``
"""

from __future__ import annotations

import os

import numpy as np

from .codes import CssPair, LinearCode
from .errors import DomainError
from .galois import Extension, Field
from .matrix import MatGF


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
    vals = toks.take_ints(rows * cols)
    a = np.array(vals, dtype=np.int64).reshape(rows, cols)
    return MatGF(field, a).a  # validates entry range


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
    with open(path) as fh:
        toks = _Tokens(fh.read())
    f = field_from_tokens(toks)
    return LinearCode(f, matrix_from_tokens(f, toks))


def write_pair(path, pair: CssPair) -> None:
    with open(path, "w") as fh:
        fh.write(field_to_line(pair.field) + "\n")
        fh.write(matrix_to_text(pair.C1.G))
        fh.write(matrix_to_text(pair.C2.G))
        fh.write(matrix_to_text(pair.g1))


def read_pair(path) -> CssPair:
    with open(path) as fh:
        toks = _Tokens(fh.read())
    f = field_from_tokens(toks)
    C1 = LinearCode(f, matrix_from_tokens(f, toks))
    C2 = LinearCode(f, matrix_from_tokens(f, toks))
    g1 = None
    if not toks.exhausted:
        g1 = matrix_from_tokens(f, toks)
    return CssPair.build(C1, C2, g1)


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
    if len(lines) < 3:
        raise DomainError("concat config needs 3 lines")
    inner_path = lines[0]
    if not os.path.isabs(inner_path):
        inner_path = os.path.join(os.path.dirname(os.path.abspath(path)), inner_path)
    inner = read_pair(inner_path)
    toks = _Tokens(lines[1])
    ext = extension_from_tokens(inner.field, toks)
    nums = _Tokens(lines[2]).take_ints(3)
    return inner, ext, nums[0], nums[1], nums[2]


def write_vector(path, v) -> None:
    v = np.asarray(v, dtype=np.int64).reshape(-1)
    with open(path, "w") as fh:
        fh.write(" ".join(str(int(x)) for x in v) + "\n")


def read_vector(path) -> np.ndarray:
    with open(path) as fh:
        toks = fh.read().split()
    try:
        return np.array([int(t) for t in toks], dtype=np.int64)
    except ValueError as exc:
        raise DomainError(f"bad vector token: {exc}") from exc
