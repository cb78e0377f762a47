"""File formats round-trip; CLI subcommands, exit codes, determinism."""

import io

import numpy as np
import pytest

from cssconcat import fileio
from cssconcat.cli import EXIT_INVARIANT, EXIT_PARSE, EXIT_TOO_LARGE, main
from cssconcat.codes import CssPair, LinearCode, bvector_pair
from cssconcat.concat import VERIFY_CAP
from cssconcat.errors import BadComplement, DomainError, NotOrthogonal
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


def test_cli_simulate_trials_past_key_range_exits_3(tmp_path, capsys):
    """Trials whose keys (trial << 64) + seed would pass 2**128 exit 3 at
    once, before any trial is sampled, rather than running chunk after
    chunk until the first bad key."""
    cfg = _write_config(tmp_path)
    code, text = run_cli(["--seed", "1", "simulate", "--pair", str(cfg), "--channel",
                          "0.99,0.01", "--trials", "100000000000000000000000"])
    assert code == EXIT_INVARIANT and text == ""
    assert capsys.readouterr().err == ("error: DomainError: trial keys (trial << 64) + seed "
                                       "must lie in [0, 2**128)\n")


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


@pytest.mark.parametrize("shape", [{}, {"n": 6, "N": 15, "K1": 11, "K2": 11, "deg": 4}],
                         ids=["12_2", "90_28"])
def test_cli_concat_verify_changes_no_output(tmp_path, shape):
    """--verify adds its one line to stdout and nothing else: stdout and the
    exported generators and checks match the same command without it."""
    cfg = _write_config(tmp_path, **shape)
    runs = []
    for flags in ([], ["--verify"]):
        prefix = tmp_path / f"cc{len(flags)}"
        code, text = run_cli(["--out", str(prefix), "concat", "--config", str(cfg)] + flags)
        assert code == 0
        files = [(tmp_path / f"{prefix.name}.{name}.txt").read_bytes()
                 for name in ("l1", "l2", "ho1", "ho2")]
        runs.append((text, files))
    (plain, plain_files), (verified, verified_files) = runs
    assert verified == plain + "duality: ok\n"
    assert verified_files == plain_files


def test_cli_concat_verify_past_cap_exits_4(tmp_path, capsys):
    """concat --verify on [[57330,24564]] (inner [[14,12]], RS[4095,3071]
    over GF(4096)), longer than concat.VERIFY_CAP, prints the pair and exits
    4 before any elimination; without --verify it exits 0."""
    cfg = _write_config(tmp_path, n=14, N=4095, K1=3071, K2=3071, deg=12)
    header = "[[57330,24564]] over GF(2) (inner [[14,12]], outer [4095,3071]/[4095,3071])\n"
    assert run_cli(["concat", "--config", str(cfg), "--verify"]) == (EXIT_TOO_LARGE, header)
    assert capsys.readouterr().err == (
        f"error: verify_duality of nN = 57330 exceeds the cap {VERIFY_CAP}\n")
    assert run_cli(["concat", "--config", str(cfg)]) == (0, header)


def test_cli_mindist_config_product_law(tmp_path):
    cfg = _write_config(tmp_path, K1=2, K2=2)
    code, text = run_cli(["mindist", "--config", str(cfg)])
    assert code == 0
    assert "== observed" in text
    # K2 = N: dual(D2) is the zero code, and the outer quotient is D1 itself
    code, text = run_cli(["mindist", "--config", str(_write_config(tmp_path))])
    assert (code, text) == (0, "w(L1 \\ dual L2) = 6\nproduct law: inner 2 x outer 3 = 6 "
                                "== observed\n")


def test_cli_decode_success(tmp_path):
    cfg = _write_config(tmp_path)
    err = tmp_path / "e.txt"
    fileio.write_vector(err, [1] + [0] * 11)
    code, text = run_cli(["decode", "--config", str(cfg), "--error", str(err)])
    assert code == 0
    assert "outer_ok 1 success 1" in text


def test_cli_decode_rejects_out_of_range_entries(tmp_path):
    """Vector entries outside [0, q) are parse errors (exit 2), not wrapped
    table indices or codes; so is a vector of the wrong length."""
    cfg = _write_config(tmp_path)  # length 12, syndrome length 7, q = 2
    vec = tmp_path / "v.txt"
    cases = [("--syndrome", [-1] + [0] * 6, EXIT_PARSE),
             ("--syndrome", [0] * 6 + [2], EXIT_PARSE),
             ("--error", [-1] + [0] * 11, EXIT_PARSE),
             ("--error", [2] + [0] * 11, EXIT_PARSE),
             # 257 and -255 are the code 1 once narrowed to int8
             ("--error", [257] + [0] * 11, EXIT_PARSE),
             ("--syndrome", [0] * 6 + [-255], EXIT_PARSE),
             ("--syndrome", [0] * 6, EXIT_PARSE),
             ("--error", [0] * 11, EXIT_PARSE)]
    for flag, v, want in cases:
        fileio.write_vector(vec, v)
        assert run_cli(["decode", "--config", str(cfg), flag, str(vec)]) == (want, "")
    fileio.write_vector(vec, [0] * 7)
    code, text = run_cli(["decode", "--config", str(cfg), "--syndrome", str(vec)])
    assert code == 0 and text == "outer_ok 1\n" + " ".join(["0"] * 12) + "\n"


@pytest.mark.parametrize("flag, length", [("--error", 12), ("--syndrome", 7)])
def test_cli_decode_rejects_wrong_length(tmp_path, capsys, flag, length):
    """A short, long or empty vector file exits 2 with a message naming the
    expected length, where it once exited 3 with a shape mismatch."""
    cfg = _write_config(tmp_path)  # length 12, syndrome length 7, q = 2
    vec = tmp_path / "v.txt"
    for size in (length - 1, length + 1, 0):
        vec.write_text(" ".join(["0"] * size) + "\n")
        assert run_cli(["decode", "--config", str(cfg), flag, str(vec)]) == (EXIT_PARSE, "")
        assert f"must have {length} entries, not {size}" in capsys.readouterr().err


def test_cli_exclusive_input_flags(tmp_path, capsys):
    """decode takes exactly one of --error and --syndrome, and mindist
    exactly one of --pair and --config: both, or neither, exit 2 with a
    usage error and print nothing, where both once ran on the first."""
    cfg = _write_config(tmp_path)
    pair = tmp_path / "pair.txt"
    fileio.write_pair(pair, bvector_pair(F2, [1] * 4, [1] * 4))
    err, syn = tmp_path / "e.txt", tmp_path / "s.txt"
    fileio.write_vector(err, [1] + [0] * 11)
    fileio.write_vector(syn, [0] * 7)
    decode = ["decode", "--config", str(cfg)]
    for argv in (decode + ["--error", str(err), "--syndrome", str(syn)], decode,
                 ["mindist", "--pair", str(pair), "--config", str(cfg)], ["mindist"]):
        assert run_cli(argv) == (EXIT_PARSE, "")
        assert "usage:" in capsys.readouterr().err
    assert run_cli(decode + ["--syndrome", str(syn)])[0] == 0
    assert run_cli(["mindist", "--pair", str(pair)])[0] == 0


def _write_gf3_config(tmp_path):
    """Inner [[6,4]] over GF(3) with nested RS[8,6] codes over GF(81):
    [[48,16]], t = 1 on both sides, syndrome length 16."""
    fileio.write_pair(tmp_path / "inner3.txt", bvector_pair(Field(3), [1] * 6, [1] * 6))
    cfg = tmp_path / "gf3.cfg"
    fileio.write_concat_config(cfg, "inner3.txt", Extension(Field(3), 4), 8, 6, 6)
    return cfg


def _line(v):
    return " ".join(map(str, v)) + "\n"


def test_cli_decode_side_2_exact(tmp_path):
    """decode --side 2, by --error and by --syndrome, on a GF(2) config
    with t = 1 on side 2 (N = 3, K1 = 3, K2 = 1) and on a GF(3) config:
    exact stdout, a corrected error, one the outer stage cannot decode and
    a random syndrome each."""
    vec = tmp_path / "v.txt"
    gf2 = _write_config(tmp_path, K1=3, K2=1)
    gf3 = _write_gf3_config(tmp_path)
    z2, z3 = [0] * 4, [0] * 42
    cases = [
        (gf2, "--error", [0] * 4 + [1, 1, 0, 0] + z2,
         "outer_ok 1 success 1\n" + _line([0] * 6 + [1, 1] + z2)),
        (gf2, "--error", [0] * 4 + [1, 0, 0, 0] + z2,
         "outer_ok 1 success 1\n" + _line([0] * 5 + [1, 1, 1] + z2)),
        (gf2, "--error", [1] + [0] * 8 + [1, 0, 1],
         "outer_ok 0 success 0\n" + _line([0, 0, 0, 1] + [0] * 8)),
        (gf2, "--syndrome", [1, 1, 0, 1, 0, 1, 1],
         "outer_ok 1\n" + _line([0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1])),
        (gf3, "--error", [0] * 4 + [1, 1] + z3,
         "outer_ok 1 success 1\n" + _line([0] * 4 + [1, 1] + z3)),
        (gf3, "--error", [0] * 4 + [1, 0] + z3,
         "outer_ok 1 success 1\n" + _line([0] * 4 + [1, 0] + z3)),
        (gf3, "--error", [1] + [0] * 44 + [1, 0, 1],
         "outer_ok 0 success 0\n" + _line([0] * 5 + [1] + [0] * 41 + [2])),
        (gf3, "--syndrome", [2, 2, 0, 2, 1, 1, 1, 0, 2, 0, 0, 1, 1, 1, 0, 0],
         "outer_ok 0\n" + _line([0] * 5 + [2] + [0] * 5 + [2] + [0] * 11 + [2] + [0] * 5
                                 + [1] + [0] * 5 + [1] + [0] * 5 + [1] + [0] * 6)),
    ]
    for cfg, flag, v, want in cases:
        fileio.write_vector(vec, v)
        assert run_cli(["decode", "--side", "2", "--config", str(cfg), flag, str(vec)]) == (0, want)


def test_cli_simulate_side_2_exact(tmp_path):
    """--seed 7 simulate --side 2: exact stdout on the two configs of
    test_cli_decode_side_2_exact."""
    header = "channel,trials,failures,estimate,ci_lo,ci_hi\n"
    cases = [(_write_config(tmp_path, K1=3, K2=1), "0.98,0.02",
              "\"0.98,0.02\",200,1,0.005,0.0008831687058,0.0277737047\n"),
             (_write_gf3_config(tmp_path), "0.98,0.01,0.01",
              "\"0.98,0.01,0.01\",200,34,0.17,0.1242790788,0.2281588368\n")]
    for cfg, channel, row in cases:
        argv = ["--seed", "7", "simulate", "--side", "2", "--pair", str(cfg),
                "--channel", channel, "--trials", "200"]
        assert run_cli(argv) == (0, header + row)


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


def test_cli_config_file_errors_exit_2(tmp_path, capsys):
    """A missing or malformed config file is a parse error for every
    subcommand that reads one; an outer code the config's numbers cannot
    build still violates a precondition (exit 3)."""
    cfg = _write_config(tmp_path)
    bad = tmp_path / "bad.cfg"
    bad.write_text("inner.txt\n2 1 1 1\n3 x 3\n")
    e = tmp_path / "e.txt"
    e.write_text(" ".join(["0"] * 12) + "\n")
    for path in (tmp_path / "nope.cfg", bad):
        for argv in (["concat", "--config", str(path)],
                     ["decode", "--config", str(path), "--error", str(e)],
                     ["--seed", "1", "simulate", "--pair", str(path),
                      "--channel", "0.9,0.1", "--trials", "10"],
                     ["mindist", "--config", str(path)]):
            assert run_cli(argv) == (EXIT_PARSE, "")
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Error:" not in err
    too_long = tmp_path / "long.cfg"
    fileio.write_concat_config(too_long, "inner.txt", Extension(F2, 2), 4, 2, 2)
    assert run_cli(["concat", "--config", str(too_long)])[0] == EXIT_INVARIANT
    assert run_cli(["concat", "--config", str(cfg)])[0] == 0


def test_cli_negative_config_dimensions_exit_2(tmp_path, capsys):
    """A negative N, K1 or K2 in a concat config is a parse error for every
    subcommand that reads one (N = -3 exited 3 with numpy's "negative
    dimensions are not allowed"); N = 0 reads, and building its outer pair
    violates a precondition (exit 3)."""
    _write_config(tmp_path)
    e = tmp_path / "e.txt"
    e.write_text(" ".join(["0"] * 12) + "\n")
    for N, K1, K2, want in ((-3, 1, 3, EXIT_PARSE), (3, -1, 3, EXIT_PARSE),
                            (3, 1, -2, EXIT_PARSE), (0, 0, 0, EXIT_INVARIANT)):
        cfg = tmp_path / "dims.cfg"
        fileio.write_concat_config(cfg, "inner.txt", Extension(F2, 2), N, K1, K2)
        if want == EXIT_PARSE:
            with pytest.raises(DomainError, match="negative concat dimensions"):
                fileio.read_concat_config(cfg)
        for argv in (["concat", "--config", str(cfg)],
                     ["decode", "--config", str(cfg), "--error", str(e)],
                     ["--seed", "1", "simulate", "--pair", str(cfg),
                      "--channel", "0.9,0.1", "--trials", "10"],
                     ["mindist", "--config", str(cfg)]):
            assert run_cli(argv) == (want, ""), (N, K1, K2, argv[0])
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "not allowed" not in err


def test_cli_well_formed_files_breaking_invariants_exit_3(tmp_path, capsys):
    """A file that parses but breaks an invariant exits 3 whichever
    subcommand reads it: a non-CSS pair through mindist --pair and through a
    concat config, a rank-deficient generator, a non-primitive polynomial."""
    noncss = tmp_path / "noncss.txt"
    noncss.write_text("2 1 0 1\n2 3\n1 0 0\n0 1 0\n2 3\n1 0 0\n0 1 0\n")
    cfg = tmp_path / "noncss.cfg"
    cfg.write_text("noncss.txt\n2 1 1 1\n3 2 2\n")
    rankdef = tmp_path / "rankdef.txt"
    rankdef.write_text("2 1 0 1\n2 3\n1 1 0\n1 1 0\n")
    for argv, name in ((["mindist", "--pair", str(noncss)], "NotOrthogonal"),
                       (["concat", "--config", str(cfg)], "NotOrthogonal"),
                       (["construct", "--c1", str(rankdef), "--c2", str(rankdef)],
                        "RankDeficient"),
                       (["field", "--spec", "2 1 0 1", "--ext", "2 0 0 1"], "NotPrimitive")):
        assert run_cli(argv)[0] == EXIT_INVARIANT
        assert capsys.readouterr().err.startswith(f"error: {name}: ")


def test_cli_matrix_with_rows_and_no_columns_exits_2(tmp_path, capsys):
    """A matrix header with rows but no columns is a parse error (exit 2):
    it reads no entries, and construct on "1000000000000 0" exited 3 with
    a MemoryError.  A header with no rows, as a 0-row g1 is written,
    still reads."""
    code = tmp_path / "c.txt"
    code.write_text("2 1 0 1\n1000000000000 0\n")
    assert run_cli(["construct", "--c1", str(code), "--c2", str(code)]) == (EXIT_PARSE, "")
    assert capsys.readouterr().err == "error: a matrix with rows has no columns\n"
    assert fileio.matrix_from_tokens(F2, fileio._Tokens("0 5")).shape == (0, 5)
    assert fileio.matrix_from_tokens(F2, fileio._Tokens("0 0")).shape == (0, 0)


def test_cli_matrix_past_length_cap_exits_4(tmp_path, capsys):
    """A matrix header with more columns than fileio.LENGTH_CAP exits 4
    before anything is allocated: construct on "0 1000000000000" exited 3
    with a MemoryError from the n x n null space of the empty generator.
    A 0-row header at the cap still reads."""
    cap = fileio.LENGTH_CAP
    for cols in (10 ** 12, cap + 1):
        code = tmp_path / "c.txt"
        code.write_text(f"2 1 0 1\n0 {cols}\n")
        assert run_cli(["construct", "--c1", str(code), "--c2", str(code)]) == (EXIT_TOO_LARGE, "")
        assert capsys.readouterr().err == (
            f"error: a matrix of {cols} columns exceeds the length cap {cap}\n")
    assert fileio.matrix_from_tokens(F2, fileio._Tokens(f"0 {cap}")).shape == (0, cap)


def test_cli_bounds_unparsable_numbers_exit_2(capsys):
    grid = "0:1/10:1/20"
    for family, params, g in (("flx", "q=x", grid), ("main", "t=3,q=2.5", grid),
                              ("enlarged", "q=4,n=4,k=2,d=2,gamma_hat=x", grid),
                              ("enlarged", "q=4,n=4,k=2,d=2,gamma_hat=1/0", grid),
                              ("main", "t=3,q=2", "0:1/0:1")):
        argv = ["bounds", "--family", family, "--params", params, "--grid", g]
        assert run_cli(argv) == (EXIT_PARSE, "")
        assert capsys.readouterr().err.startswith("error: ")
    argv = ["bounds", "--family", "enlarged", "--params", "q=4,n=4,k=2,d=2,gamma_hat=1/3",
            "--grid", grid]
    assert run_cli(argv)[0] == 0


def test_cli_bounds_envelope_edge_inputs(capsys):
    """q not a prime power exits 3 (q = 1 used to raise ZeroDivisionError,
    q = 0 and 6 printed a curve), tmax below 2 exits 2 (an empty t range made
    max() fail) and tmax above the cap exits 4 at once (100000 did not finish
    in 60 s)."""
    from cssconcat.cli import TMAX_CAP

    grid = "0:1/10:1/20"
    for params, want in (("q=0", EXIT_INVARIANT), ("q=6", EXIT_INVARIANT),
                         ("q=1", EXIT_INVARIANT), ("q=2,tmax=1", EXIT_PARSE),
                         ("q=2,tmax=-3", EXIT_PARSE), ("q=2,tmax=100000", EXIT_TOO_LARGE),
                         (f"q=2,tmax={TMAX_CAP + 1}", EXIT_TOO_LARGE)):
        argv = ["bounds", "--family", "envelope", "--params", params, "--grid", grid]
        assert run_cli(argv) == (want, ""), params
        assert capsys.readouterr().err.startswith("error: ")
    code, text = run_cli(["bounds", "--family", "envelope", "--params",
                          f"q=2,tmax={TMAX_CAP}", "--grid", grid])
    assert code == 0 and len(text.splitlines()) == 3
    # t = 2 alone: (2/3)(1 - 2/15) - 4 delta = 26/45 - 4 delta
    code, text = run_cli(["bounds", "--family", "envelope", "--params", "q=4,tmax=2",
                          "--grid", grid])
    assert (code, text) == (0, "0,0.5777777778\n0.05,0.3777777778\n0.1,0.1777777778\n")


def test_cli_bounds_gv_css_binary_past_half():
    """The binary CSS GV curve is 0 past delta = 1/2, not the mirror image of
    its first half (it printed 1 at delta = 1)."""
    code, text = run_cli(["bounds", "--family", "gv", "--grid", "0:1:1/2"])
    assert (code, text) == (0, "0,1\n0.5,0\n1,0\n")


def test_cli_bounds_grid_cap(monkeypatch, capsys):
    """A grid of more than GRID_CAP points exits 4 at once, before any point
    is built (0:1:1/300000 took 8 s, and a step of 1/10^9 would need a
    billion Fractions); a grid of exactly the cap is printed."""
    from cssconcat import cli

    argv = ["bounds", "--family", "main", "--params", "t=3,q=2", "--grid"]
    for step in (f"1/{cli.GRID_CAP}", "1/300000", "1/1000000000"):
        assert run_cli(argv + [f"0:1:{step}"]) == (EXIT_TOO_LARGE, ""), step
        assert capsys.readouterr().err.startswith("error: grid has ")
    monkeypatch.setattr(cli, "GRID_CAP", 10)
    assert run_cli(argv + ["0:1:1/10"])[0] == EXIT_TOO_LARGE
    code, text = run_cli(argv + ["0:1:1/9"])
    lines = text.splitlines()
    assert code == 0 and len(lines) == 10
    assert lines[1].startswith("0.1111111111,") and lines[-1].startswith("1,")


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


def test_cli_bounds_rates_outside_unit_interval_exit_3(capsys):
    """A grid reaching outside [0, 1] exits 3 for every family routed through
    bound_general and for enlarged (main printed five lines for 0:2:1/2 and
    exited 0, while general exited 3); inside [0, 1] each prints its grid."""
    for family, params, grid in (("main", "t=3,q=2", "0:2:1/2"),
                                 ("clx", "t=3,q=2", "-1/2:1/2:1/2"),
                                 ("flx", "q=9", "0:3/2:1/2"),
                                 ("enlarged", "q=4,n=4,k=2,d=2,gamma_hat=1/3", "1/2:3/2:1/2"),
                                 ("general", "n=8,k=6,d1=2,d2=2,q=2", "0:2:1/2")):
        argv = ["bounds", "--family", family, "--params", params, f"--grid={grid}"]
        assert run_cli(argv) == (EXIT_INVARIANT, ""), family
        assert capsys.readouterr().err == "error: DomainError: rate must lie in [0, 1]\n"
        code, text = run_cli(argv[:-1] + ["--grid=0:1:1/2"])
        assert code == 0 and len(text.splitlines()) == 3, family


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
    # a negative gamma_hat is outside the bound's domain
    code, text = run_cli(["bounds", "--family", "enlarged",
                          "--params", "q=4,n=4,k=2,d=2,gamma_hat=-1", "--grid", "0:1:1/2"])
    assert (code, text) == (EXIT_INVARIANT, "")
