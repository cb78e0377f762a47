"""File formats round-trip; CLI subcommands, exit codes, determinism."""

import io

import numpy as np
import pytest

from cssconcat import fileio
from cssconcat.cli import EXIT_INVARIANT, EXIT_PARSE, EXIT_TOO_LARGE, main
from cssconcat.codes import CssPair, LinearCode, bvector_pair
from cssconcat.errors import BadComplement, NotOrthogonal
from cssconcat.galois import Extension, Field

F2 = Field(2)

HAMMING_H = np.array([[1, 0, 1, 0, 1, 0, 1],
                      [0, 1, 1, 0, 0, 1, 1],
                      [0, 0, 0, 1, 1, 1, 1]])


# -- serialization round trips ------------------------------------------------

def test_field_line_roundtrip():
    for f in (F2, Field(2, 2), Field(3), Field(5, 2)):
        line = fileio.field_to_line(f)
        g = fileio.field_from_tokens(fileio._Tokens(line))
        assert (g.p, g.e, tuple(g.modulus)) == (f.p, f.e, tuple(f.modulus))


def test_extension_line_roundtrip():
    for f, k in ((F2, 2), (F2, 4), (Field(2, 2), 2)):
        ext = Extension(f, k)
        line = fileio.extension_to_line(ext)
        ext2 = fileio.extension_from_tokens(f, fileio._Tokens(line))
        assert ext2.k == ext.k and tuple(ext2.f) == tuple(ext.f)


def test_code_roundtrip(tmp_path):
    C = LinearCode.from_parity_check(F2, HAMMING_H)
    p = tmp_path / "code.txt"
    fileio.write_code(p, C)
    C2 = fileio.read_code(p)
    assert C2.field.q == 2 and np.array_equal(C2.G, C.G)


def test_pair_roundtrip(tmp_path):
    pair = bvector_pair(F2, [1] * 4, [1] * 4)
    p = tmp_path / "pair.txt"
    fileio.write_pair(p, pair)
    pair2 = fileio.read_pair(p)
    assert (pair2.n, pair2.k) == (pair.n, pair.k)
    assert np.array_equal(pair2.g1, pair.g1)


def test_vector_roundtrip(tmp_path):
    v = np.array([0, 1, 1, 0, 1])
    p = tmp_path / "v.txt"
    fileio.write_vector(p, v)
    assert np.array_equal(fileio.read_vector(p), v)


def _write_config(tmp_path, n=4, N=3, K1=1, K2=3, deg=2):
    pair = bvector_pair(F2, [1] * n, [1] * n)
    pair_path = tmp_path / "inner.txt"
    fileio.write_pair(pair_path, pair)
    cfg = tmp_path / "concat.cfg"
    fileio.write_concat_config(cfg, "inner.txt", Extension(F2, deg), N, K1, K2)
    return cfg


def test_concat_config_roundtrip(tmp_path):
    cfg = _write_config(tmp_path)
    inner, ext, N, K1, K2 = fileio.read_concat_config(cfg)
    assert (inner.n, inner.k) == (4, 2)
    assert (ext.k, N, K1, K2) == (2, 3, 1, 3)


# -- CLI ----------------------------------------------------------------------

def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def test_cli_field_golden():
    code, text = run_cli(["field", "--spec", "2 1 0 1", "--ext", "3 1 1 0 1"])
    assert code == 0
    assert "GF(2" in text and "degree 3" in text
    # companion matrix of x^3 + x + 1
    assert "3 3\n0 0 1\n1 0 1\n0 1 0\n" in text


def test_cli_field_past_the_order_cap(capsys):
    """An extension of order 16384 (x^14 + x^5 + x^3 + x + 1 over GF(2))
    fails when it is built: exit 4 and a one-line error, no traceback."""
    spec = " ".join(map(str, [14, 1, 1, 0, 1, 0, 1] + [0] * 8 + [1]))
    code, text = run_cli(["field", "--spec", "2 1 0 1", "--ext", spec])
    err = capsys.readouterr().err
    assert code == EXIT_TOO_LARGE
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "extension" not in text


def test_cli_field_huge_degree_exits_4(capsys):
    """GF(2^15000) fails its order check at once, before any power or
    primality test, with exit 4 and no digits of the order."""
    spec = " ".join(["2", "15000"] + ["0"] * 15000 + ["1"])
    code, text = run_cli(["field", "--spec", spec])
    err = capsys.readouterr().err
    assert code == EXIT_TOO_LARGE and text == ""
    assert err == "error: field order p^e exceeds table cap 8192\n"


def test_cli_simulate_channel_edge_inputs(tmp_path, capsys):
    """An unparsable channel is a parse error (exit 2); non-finite
    probabilities violate the channel's precondition (exit 3)."""
    cfg = _write_config(tmp_path)
    base = ["--seed", "1", "simulate", "--pair", str(cfg), "--trials", "10", "--channel"]
    code, _ = run_cli(base + ["abc,0.1"])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: could not convert")
    for channel in ("nan,nan", "inf,0", "0.5,nan"):
        code, _ = run_cli(base + [channel])
        assert code == EXIT_INVARIANT
        assert capsys.readouterr().err == ("error: DomainError: probabilities must be finite\n")


def test_cli_construct_and_mindist(tmp_path):
    C = LinearCode.from_parity_check(F2, HAMMING_H)
    c_path = tmp_path / "steane.txt"
    fileio.write_code(c_path, C)
    out_path = tmp_path / "pair.txt"
    code, text = run_cli(["--out", str(out_path), "construct",
                          "--c1", str(c_path), "--c2", str(c_path)])
    assert code == 0 and "[[7,1]]" in text
    code, text = run_cli(["mindist", "--pair", str(out_path)])
    assert code == 0
    assert "pair distance = 3" in text


def test_cli_construct_with_g1(tmp_path):
    """A g1 in C1 builds the pair; one outside C1 or inside dual(C2) exits 3."""
    C = LinearCode.from_parity_check(F2, HAMMING_H)
    c_path = tmp_path / "steane.txt"
    fileio.write_code(c_path, C)
    g1 = tmp_path / "g1.txt"
    argv = ["construct", "--c1", str(c_path), "--c2", str(c_path), "--g1", str(g1)]
    g1.write_text("1 1 1 1 1 1 1\n")
    assert run_cli(argv) == (0, "[[7,1]] over GF(2)\n")
    for bad in ("1 0 0 0 0 0 0", "1 0 1 0 1 0 1", "1 1 1 1 1 1 1 1 1 1 1 1 1 1"):
        g1.write_text(bad + "\n")
        assert run_cli(argv)[0] == EXIT_INVARIANT
        with pytest.raises(BadComplement):
            run_cli(["--debug"] + argv)


def test_cli_concat_verify_and_files(tmp_path):
    cfg = _write_config(tmp_path)
    prefix = str(tmp_path / "cc")
    code, text = run_cli(["--out", prefix, "concat", "--config", str(cfg),
                          "--verify"])
    assert code == 0
    assert "[[12," in text and "duality: ok" in text
    L1 = fileio.read_code(prefix + ".l1.txt")
    assert L1.n == 12
    with open(prefix + ".ho1.txt") as fh:
        toks = fileio._Tokens(fh.read())
    Ho1 = fileio.matrix_from_tokens(F2, toks)
    assert Ho1.shape[1] == 12


def test_cli_mindist_config_product_law(tmp_path):
    cfg = _write_config(tmp_path, K1=2, K2=2)
    code, text = run_cli(["mindist", "--config", str(cfg)])
    assert code == 0
    assert "== observed" in text


def test_cli_decode_success(tmp_path):
    cfg = _write_config(tmp_path)
    err = tmp_path / "e.txt"
    fileio.write_vector(err, [1] + [0] * 11)
    code, text = run_cli(["decode", "--config", str(cfg), "--error", str(err)])
    assert code == 0
    assert "outer_ok 1 success 1" in text


def test_cli_decode_rejects_out_of_range_entries(tmp_path):
    """Vector entries outside [0, q) are parse errors (exit 2), not wrapped
    table indices or codes; a vector of the wrong length still exits 3."""
    cfg = _write_config(tmp_path)  # length 12, syndrome length 7, q = 2
    vec = tmp_path / "v.txt"
    cases = [("--syndrome", [-1] + [0] * 6, EXIT_PARSE),
             ("--syndrome", [0] * 6 + [2], EXIT_PARSE),
             ("--error", [-1] + [0] * 11, EXIT_PARSE),
             ("--error", [2] + [0] * 11, EXIT_PARSE),
             # 257 and -255 are the code 1 once narrowed to int8
             ("--error", [257] + [0] * 11, EXIT_PARSE),
             ("--syndrome", [0] * 6 + [-255], EXIT_PARSE),
             ("--syndrome", [0] * 6, EXIT_INVARIANT),
             ("--error", [0] * 11, EXIT_INVARIANT)]
    for flag, v, want in cases:
        fileio.write_vector(vec, v)
        assert run_cli(["decode", "--config", str(cfg), flag, str(vec)]) == (want, "")
    fileio.write_vector(vec, [0] * 7)
    code, text = run_cli(["decode", "--config", str(cfg), "--syndrome", str(vec)])
    assert code == 0 and text == "outer_ok 1\n" + " ".join(["0"] * 12) + "\n"


def test_cli_simulate_deterministic(tmp_path):
    cfg = _write_config(tmp_path)
    argv = ["--seed", "7", "simulate", "--pair", str(cfg),
            "--channel", "0.98,0.02", "--trials", "200"]
    c1, t1 = run_cli(argv)
    c2, t2 = run_cli(argv)
    assert c1 == c2 == 0
    assert t1 == t2  # byte-identical rerun with a fixed seed
    assert t1.startswith("channel,trials,failures,estimate,ci_lo,ci_hi")
    code, text = run_cli(["--seed", "3", "simulate", "--pair", str(cfg),
                          "--channel", "1.0,0.0", "--trials", "100"])
    assert code == 0 and ",100,0,0," in text  # noiseless channel never fails


def test_cli_enlarge_brute(tmp_path):
    C = LinearCode.from_parity_check(F2, HAMMING_H)
    Cp = LinearCode.from_parity_check(F2, HAMMING_H[:1])
    pc, pcp = tmp_path / "c.txt", tmp_path / "cp.txt"
    fileio.write_code(pc, C)
    fileio.write_code(pcp, Cp)
    code, text = run_cli(["enlarge", "--c", str(pc), "--cprime", str(pcp),
                          "--brute"])
    assert code == 0
    assert "[[7,3]]" in text and "symplectic distance = 2 (ok)" in text


def test_cli_bounds_csv(tmp_path):
    out = tmp_path / "curve.csv"
    code, _ = run_cli(["--out", str(out), "bounds", "--family", "main",
                       "--params", "t=3,q=2", "--grid", "0:1/10:1/20"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,main_t3_q2"
    assert lines[1].split(",")[1] == f"{5 / 56:.10g}"
    assert len(lines) == 4  # grid 0, 1/20, 1/10


def test_cli_exit_codes(tmp_path):
    # parse errors
    code, _ = run_cli(["mindist"])
    assert code == EXIT_PARSE
    code, _ = run_cli(["simulate", "--pair", "x", "--channel", "0.9,0.1",
                       "--trials", "10"])  # missing --seed
    assert code == EXIT_PARSE
    code, _ = run_cli(["field", "--spec", "2 1 0"])  # truncated modulus
    assert code == EXIT_PARSE
    bad = tmp_path / "nope.txt"
    code, _ = run_cli(["mindist", "--pair", str(bad)])  # unreadable file
    assert code == EXIT_PARSE
    # invariant violation: C2 not orthogonal-compatible with C1
    c1 = tmp_path / "c1.txt"
    fileio.write_code(c1, LinearCode(F2, np.array([[1, 0, 0], [0, 1, 0]])))
    code, _ = run_cli(["construct", "--c1", str(c1), "--c2", str(c1)])
    assert code == EXIT_INVARIANT
    # enumeration cap exceeded
    pair = bvector_pair(F2, [1] * 4, [1] * 4)
    p = tmp_path / "pair.txt"
    fileio.write_pair(p, pair)
    code, _ = run_cli(["--cap", "2", "mindist", "--pair", str(p)])
    assert code == EXIT_TOO_LARGE


def test_cli_debug_reraises_invariant_violations(tmp_path):
    c1 = tmp_path / "c1.txt"
    fileio.write_code(c1, LinearCode(F2, np.array([[1, 0, 0], [0, 1, 0]])))
    argv = ["construct", "--c1", str(c1), "--c2", str(c1)]
    assert run_cli(argv)[0] == EXIT_INVARIANT
    with pytest.raises(NotOrthogonal):
        run_cli(["--debug"] + argv)
    # parse errors and cap overruns keep their exit codes
    assert run_cli(["--debug", "mindist", "--pair", str(tmp_path / "nope")])[0] == EXIT_PARSE
    pair = tmp_path / "pair.txt"
    fileio.write_pair(pair, bvector_pair(F2, [1] * 4, [1] * 4))
    assert run_cli(["--debug", "--cap", "2", "mindist", "--pair", str(pair)])[0] \
        == EXIT_TOO_LARGE


def test_cli_seed_range(tmp_path):
    """Seeds outside [0, 2**64) are parse errors: the trial substream key
    (trial << 64) + seed would alias 2**64 + s with seed s of the next trial."""
    cfg = _write_config(tmp_path)
    args = ["simulate", "--pair", str(cfg), "--channel", "0.98,0.02", "--trials", "20"]
    for seed in (-1, 2 ** 64, 2 ** 64 + 7):
        code, text = run_cli(["--seed", str(seed)] + args)
        assert code == EXIT_PARSE and text == ""
    code, text = run_cli(["--seed", str(2 ** 64 - 1)] + args)
    assert code == 0 and ",20," in text


def test_cli_bounds_enlarged_floor_and_errors():
    # below the rate floor the curve is 0; invalid parameters are not masked
    grid = "0:1/10:1/20"
    code, text = run_cli(["bounds", "--family", "enlarged",
                          "--params", "q=4,n=4,k=2,d=2", "--grid", grid])
    assert code == 0
    assert [line.split(",")[1] for line in text.splitlines()][0] == "0"
    code, _ = run_cli(["bounds", "--family", "enlarged",
                       "--params", "q=6,n=4,k=2,d=2", "--grid", grid])
    assert code == EXIT_INVARIANT  # 6 is not a prime power
