import contextlib
import io
import json
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from fanov5.bundles import CATALOG_NAMES
from fanov5.chow import CATALOG_CLASSES
from fanov5.cli import main
from fanov5.linalg import PrimeField
from fanov5.quiver import random_rep


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBwb:
    def test_documented_output(self, capsys):
        code, out, _ = run_cli(capsys, "bwb", "--bundle", "U", "--twist", "1")
        assert code == 0
        assert out == '{"h":{"0":5},"highest_weight":"w1"}\n'

    def test_empty_table(self, capsys):
        code, out, _ = run_cli(capsys, "bwb", "--bundle", "U", "--twist", "-2")
        assert code == 0
        assert json.loads(out) == {"h": {}}

    def test_byte_stability(self, capsys):
        args = ("bwb", "--bundle", "Qstar", "--twist", "-5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestChain:
    def test_six_steps(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--bundle", "U", "--twist", "-5")
        assert code == 0
        data = json.loads(out)
        assert data["start"] == [2, -5, 1, 1]
        assert data["length"] == 6
        assert data["singular"] is False
        assert [s["sigma"] for s in data["steps"]] == [2, 1, 3, 2, 4, 3]
        assert data["final"] == [1, 1, 1, 2]

    def test_singular_chain(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--bundle", "U", "--twist", "-1")
        data = json.loads(out)
        assert data["singular"] is True
        assert data["final"] == [1, 1, 0, 1]


class TestRestrict:
    def test_needs_maps_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "restrict", "--bundle", "O", "--twist", "1", "--codim", "3")
        assert code == 2
        data = json.loads(out)
        assert data["status"] == "needs-maps"
        assert "h" not in data

    def test_generic_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "restrict", "--bundle", "O", "--twist", "1", "--codim", "3", "--assume-generic"
        )
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "generic-assumed"
        assert data["h"] == {"0": 7}
        assert data["page"] == {"0": {"0": 10}, "1": {"0": 3}}

    def test_exact_case(self, capsys):
        code, out, _ = run_cli(capsys, "restrict", "--bundle", "U", "--twist", "-2", "--codim", "3")
        assert code == 0
        data = json.loads(out)
        assert data == {"codim": 3, "h": {"3": 5}, "page": {"3": {"6": 5}}, "status": "exact"}


class TestUlrich:
    def test_positive(self, capsys):
        code, out, _ = run_cli(capsys, "ulrich", "--bundle", "Sym2Ustar", "--codim", "3")
        assert code == 0
        assert json.loads(out)["is_ulrich"] is True

    def test_negative_with_witness(self, capsys):
        code, out, _ = run_cli(capsys, "ulrich", "--bundle", "O", "--codim", "3")
        assert code == 0
        data = json.loads(out)
        assert data["is_ulrich"] is False
        assert data["witness"] == {"twist": 2, "degree": 3}

    def test_codim_beyond_three(self, capsys):
        code, out, _ = run_cli(capsys, "ulrich", "--bundle", "Sym2Ustar", "--codim", "4")
        assert code == 0
        assert out == '{"bundle":"Sym2Ustar","codim":4,"is_ulrich":true,"witness":null}\n'

    def test_indeterminate_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "ulrich", "--bundle", "O", "--twist", "-9", "--codim", "3"
        )
        assert code == 2
        assert json.loads(out)["is_ulrich"] is None

    def test_generic_flag(self, capsys):
        argv = ("ulrich", "--bundle", "U", "--twist", "-2", "--codim", "3")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)["is_ulrich"] is None
        code, out, _ = run_cli(capsys, *argv, "--assume-generic")
        assert code == 0
        assert out == '{"bundle":"U","codim":3,"is_ulrich":false,"witness":{"degree":3,"twist":1}}\n'


class TestChow:
    def test_chi(self, capsys):
        code, out, _ = run_cli(capsys, "chow", "chi", "--bundle", "U", "--twist", "-2")
        assert code == 0 and out == "-5\n"

    def test_class(self, capsys):
        _, out, _ = run_cli(capsys, "chow", "class", "--bundle", "Qstar")
        assert json.loads(out) == {"rank": 3, "c1": -1, "c2": 3, "c3": -1}

    def test_ulrich_chern(self, capsys):
        _, out, _ = run_cli(capsys, "chow", "ulrich-chern", "--rank", "2")
        assert json.loads(out) == {"rank": 2, "c1": 2, "c2": 7, "c3": 0}

    def test_coker(self, capsys):
        _, out, _ = run_cli(capsys, "chow", "coker", "--rank", "3")
        assert json.loads(out) == {"rank": 3, "c1": 0, "c2": 3, "c3": 0}

    def test_pairing(self, capsys):
        _, out, _ = run_cli(capsys, "chow", "pairing", "--rank", "3")
        assert out == "-9\n"

    def test_todd(self, capsys):
        _, out, _ = run_cli(capsys, "chow", "todd")
        assert json.loads(out) == {"1": "1", "h": "1", "l": "8/3", "p": "1"}


class TestQuiver:
    def test_moduli_dim_plain_scalar(self, capsys):
        code, out, _ = run_cli(capsys, "quiver", "moduli-dim", "--dim", "2", "2")
        assert code == 0
        assert out == "5\n"

    def test_euler_form(self, capsys):
        _, out, _ = run_cli(capsys, "quiver", "euler-form", "--dim", "3", "3")
        assert out == "-9\n"
        _, out, _ = run_cli(
            capsys, "quiver", "euler-form", "--dim", "1", "0", "--dim2", "0", "1"
        )
        assert out == "-3\n"

    def test_theta(self, capsys):
        _, out, _ = run_cli(capsys, "quiver", "theta", "--dim", "1", "0")
        assert out == "5\n"

    def test_stability_from_seed(self, capsys):
        code, out, _ = run_cli(
            capsys, "quiver", "stability", "--dim", "1", "1", "--field", "5", "--seed", "1"
        )
        assert code == 0
        data = json.loads(out)
        assert data["theta"] == 0
        assert data["status"] in ("stable", "strictly-semistable", "unstable")

    def test_stability_from_file(self, capsys, tmp_path):
        rep = random_rep((2, 2), PrimeField(2), 7)
        path = tmp_path / "rep.json"
        path.write_text(rep.to_json(), encoding="utf-8")
        code, out, _ = run_cli(capsys, "quiver", "stability", "--matrices", str(path))
        assert code == 0
        assert json.loads(out)["status"] in ("stable", "strictly-semistable", "unstable")

    def test_stability_compares_slopes_off_the_diagonal(self, capsys, tmp_path):
        # S1 + S1: the sub S1 has the slope of the whole, theta/dim = 5, so
        # it ties; and theta(1, 0) = 5 < theta(2, 0) = 10 must not make it stable
        code, out, _ = run_cli(capsys, "quiver", "stability", "--dim", "2", "0", "--field", "2")
        assert code == 0
        assert out == (
            '{"status":"strictly-semistable","theta":10,"witness":'
            '{"basis1":[[1,0]],"basis2":[],"dims":[1,0],"theta":5}}\n'
        )
        # (1, 2) with A = e1, B = e2, C = 0: the only proper subrepresentations
        # are (0, e), of slope -5 < -5/3; theta(0, 1) = theta(d) is no tie
        path = tmp_path / "rep.json"
        path.write_text('{"q":2,"d":[1,2],"A":[[1],[0]],"B":[[0],[1]],"C":[[0],[0]]}', encoding="utf-8")
        code, out, _ = run_cli(capsys, "quiver", "stability", "--matrices", str(path))
        assert code == 0
        assert out == '{"status":"stable","theta":-5,"witness":null}\n'

    def test_hom_ext_from_files(self, capsys, tmp_path):
        a = random_rep((1, 0), PrimeField(2), 0)
        b = random_rep((0, 1), PrimeField(2), 0)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(a.to_json(), encoding="utf-8")
        pb.write_text(b.to_json(), encoding="utf-8")
        code, out, _ = run_cli(capsys, "quiver", "hom-ext", "--matrices", str(pa), str(pb))
        assert code == 0
        assert json.loads(out) == {"ext1": 3, "hom": 0}

    def test_random_deterministic(self, capsys):
        args = ("quiver", "random", "--dim", "2", "2", "--field", "3", "--seed", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        data = json.loads(first)
        assert data["q"] == 3 and data["d"] == [2, 2]


class TestFormats:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bwb", "--bundle", "U", "--twist", "1"),
            ("restrict", "--bundle", "U", "--twist", "-2", "--codim", "3"),
            ("chow", "class", "--bundle", "U"),
        ],
    )
    def test_table_encodes_same_data(self, capsys, argv):
        _, json_out, _ = run_cli(capsys, *argv)
        _, table_out, _ = run_cli(capsys, *argv, "--format", "table")
        data = json.loads(json_out)
        flat = {}
        for line in table_out.splitlines():
            key, value = line.split(None, 1)
            flat[key] = value.strip()
        for key, val in flatten(data):
            assert key in flat
            assert str_of(val) == flat[key] or json.dumps(val) == flat[key]

    def test_scalar_same_both_ways(self, capsys):
        _, a, _ = run_cli(capsys, "chow", "chi", "--bundle", "O", "--twist", "1")
        _, b, _ = run_cli(capsys, "chow", "chi", "--bundle", "O", "--twist", "1", "--format", "table")
        assert a == b == "7\n"


def flatten(data, prefix=""):
    if isinstance(data, dict):
        for k, v in data.items():
            yield from flatten(v, f"{prefix}.{k}" if prefix else str(k))
    else:
        yield prefix, data


def str_of(val):
    if isinstance(val, list):
        return " ".join(json.dumps(v) for v in val)
    return json.dumps(val)


class TestErrors:
    def test_unknown_bundle(self, capsys):
        code, _, err = run_cli(capsys, "bwb", "--bundle", "Sym3")
        assert code == 1
        assert "invalid choice: 'Sym3'" in err

    def test_usage_error_is_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "bwb", "--bundle", "NotABundle")
        assert code == 1

    def test_bad_codim(self, capsys):
        code, _, err = run_cli(capsys, "restrict", "--bundle", "U", "--codim", "9")
        assert code == 1

    @pytest.mark.parametrize("command", ["restrict", "ulrich"])
    @pytest.mark.parametrize("codim", range(-1, 8))
    def test_one_codimension_range(self, capsys, command, codim):
        # 0..dim Gr(2,5) = 0..6 for both commands, the ambient space included
        code, out, err = run_cli(capsys, command, "--bundle", "U", "--twist", "-2", "--codim", str(codim))
        if 0 <= codim <= 6:
            assert code in (0, 2) and err == ""
        else:
            assert (code, out) == (1, "")
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert "out of range 0..6" in lines[0]

    def test_missing_matrices_file(self, capsys):
        code, _, err = run_cli(capsys, "quiver", "stability", "--matrices", "/nonexistent.json")
        assert code == 1


HELP = {
    (): """\
usage: fanov5 [-h] {bwb,chain,restrict,ulrich,chow,quiver,verify} ...

positional arguments:
  {bwb,chain,restrict,ulrich,chow,quiver,verify}
    bwb                 ambient cohomology table
    chain               reflection chain replay
    restrict            restrict to a linear section
    ulrich              vanishing check for all middle twists
    chow                intersection theory on the threefold
    quiver              Kronecker quiver computations
    verify              run the reproduction checklist

options:
  -h, --help            show this help message and exit
""",
    ("chow",): """\
usage: fanov5 chow [-h] {chi,class,ulrich-chern,coker,pairing,todd} ...

positional arguments:
  {chi,class,ulrich-chern,coker,pairing,todd}

options:
  -h, --help            show this help message and exit
""",
    ("quiver",): """\
usage: fanov5 quiver [-h]
                     {euler-form,theta,moduli-dim,hom-ext,stability,random}
                     ...

positional arguments:
  {euler-form,theta,moduli-dim,hom-ext,stability,random}

options:
  -h, --help            show this help message and exit
""",
}


class TestSurface:
    """The commands, their order and the usage errors, as a user sees them."""

    @pytest.mark.parametrize("group", sorted(HELP))
    def test_help(self, capsys, monkeypatch, group):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([*group, "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        leaves = re.compile(r"\{([a-z,-]+)\}")
        assert leaves.findall(out)[0] == leaves.findall(HELP[group])[0]
        if sys.version_info[:2] == (3, 11):
            # the layout is argparse's own and is pinned on one version only
            assert out == HELP[group]

    @pytest.mark.parametrize(
        "group, dest", [((), "command"), (("chow",), "chow_command"), (("quiver",), "quiver_command")]
    )
    def test_missing_leaf(self, capsys, group, dest):
        code, out, err = run_cli(capsys, *group)
        assert (code, out) == (1, "")
        assert err == f"error: the following arguments are required: {dest}\n"


class TestMalformedInput:
    """Bad input ends in exit 1 and one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (("quiver", "hom-ext", "--matrices"), {"q": "rational", "d": [2], "A": [], "B": [], "C": []}),
            (
                ("quiver", "stability", "--matrices"),
                {"q": 3, "d": [2, 2], "A": 5, "B": [[0, 0]] * 2, "C": [[0, 0]] * 2},
            ),
            (("quiver", "moduli-dim", "--dim", "-3", "2"), None),
            (("quiver", "stability", "--dim", "0", "0", "--field", "2"), None),
            (("ulrich", "--bundle", "Sym2Ustar", "--codim", "7"), None),
            # --format belongs to the leaf command, not to its group
            (("chow", "--format", "table", "todd"), None),
            (("quiver", "--format", "table", "theta", "--dim", "2", "1"), None),
            (("quiver", "theta", "--dim", "-3", "2"), None),
            (("quiver", "euler-form", "--dim", "-1", "2", "--dim2", "3", "4"), None),
            # --n and --k are gone: a Gr(k, n) of any size had no time bound
            (("bwb", "--bundle", "Ustar", "--n", "1000", "--k", "500"), None),
            # the size cap is checked before anything is drawn
            (("quiver", "random", "--dim", "100000", "100000", "--field", "2"), None),
            # hom-ext bounds the dimensions, and over Q the entries' bits: these would run for minutes
            (("quiver", "hom-ext", "--matrices"), {"q": "rational", "d": [10, 10], **dict.fromkeys("ABC", [[1] * 10] * 10)}),
            (("quiver", "hom-ext", "--matrices"), {"q": "rational", "d": [3, 3], **dict.fromkeys("ABC", [[int("9" * 4000)] * 3] * 3)}),
            (
                ("quiver", "hom-ext", "--matrices"),
                {"q": "rational", "d": [3, 3], **dict.fromkeys("ABC", [[f"1/{3 ** 8000}", f"1/{5 ** 5700}", 1]] * 3)},
            ),
        ],
    )
    def test_one_error_line(self, tmp_path, argv, payload):
        if payload is not None:
            path = tmp_path / "rep.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            argv = (*argv, str(path))
        proc = subprocess.run(
            [sys.executable, "-m", "fanov5.cli", *argv], capture_output=True, text=True, timeout=5
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "argv, example",
        [
            (("chow", "--format", "table", "todd"), "fanov5 chow todd --format table"),
            (("quiver", "--format", "table", "theta", "--dim", "2", "1"), "fanov5 quiver theta --dim 2 1 --format table"),
            (("--format", "table", "bwb", "--bundle", "O"), "fanov5 bwb --bundle O --format table"),
        ],
    )
    def test_group_format_says_where_it_goes(self, argv, example):
        proc = subprocess.run(
            [sys.executable, "-m", "fanov5.cli", *argv], capture_output=True, text=True, timeout=5
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: --format goes after the leaf command, for example `{example}`\n"

    def test_stability_checks_dimensions_before_drawing(self):
        # a 10^5 x 10^5 representation is never drawn: the cap is checked first
        proc = subprocess.run(
            [sys.executable, "-m", "fanov5.cli", "quiver", "stability", "--dim", "100000", "100000", "--field", "2"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: dimensions capped at 4 for enumeration\n"

    def test_zero_dimension_keeps_shape_check(self, tmp_path):
        payload = {"q": 3, "d": [2, 0], "A": [[1, 2]], "B": [[5, 5], [1, 1]], "C": [[7]]}
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "fanov5.cli", "quiver", "hom-ext", "--matrices", str(path)],
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: map A must be 0x2\n")

    @pytest.mark.parametrize(
        "field, d, first_row, accepted",
        [
            (5, [6, 6], [4] * 6, True),
            (5, [7, 6], [4] * 7, False),
            (5, [0, 7], [], False),
            ("rational", [2, 2], [2 ** 24 - 1, 0], True),
            ("rational", [2, 2], [2 ** 24, 0], False),
            # over the common denominator 15, 2^22/5 is 3 * 2^22 (24 bits) and 2^23/5 is 25 bits
            ("rational", [2, 2], ["1/3", f"{2 ** 22}/5"], True),
            ("rational", [2, 2], ["1/3", f"{2 ** 23}/5"], False),
            ("rational", [2, 2], [f"1/{2 ** 24}", 0], False),
        ],
    )
    def test_hom_ext_caps(self, capsys, tmp_path, field, d, first_row, accepted):
        d1, d2 = d
        zero = [[0] * d1 for _ in range(d2)]
        payload = {"q": field, "d": d, "A": [first_row] + zero[1:], "B": zero, "C": zero}
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli(capsys, "quiver", "hom-ext", "--matrices", str(path))
        if accepted:
            assert code == 0 and set(json.loads(out)) == {"hom", "ext1"}
        else:
            assert (code, out) == (1, "") and err.startswith("error: hom-ext ")


class TestCliFuzz:
    """Generated inputs end in exit 0, 1 or 2, never in a traceback."""

    @staticmethod
    def run_main(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
            assert out.getvalue() == "", argv
        else:
            json.loads(out.getvalue())
        return code

    def test_payload_files(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        junk = st.one_of(
            st.none(), st.booleans(), st.floats(allow_nan=False), st.text("ab1/-", max_size=4),
            st.lists(st.integers(-2, 2), max_size=2), st.dictionaries(st.text("ab", max_size=1), st.integers(), max_size=1),
        )
        bad_q = st.one_of(st.sampled_from([7, 1000000007, 4, 1, 0, -5, "3"]), junk)
        bad_d = st.lists(st.one_of(st.integers(0, 4), st.integers(-3, -1), st.integers(10**5, 10**12), junk), max_size=3)
        entry = st.one_of(st.integers(-10**30, 10**30), st.sampled_from(["1/2", "-3/7", "1/0", "x"]), junk)

        @st.composite
        def payload(draw):
            # a valid representation, then up to two of the faults below
            d1, d2 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
            maps = {
                name: draw(st.lists(st.lists(st.integers(-9, 9), min_size=d1, max_size=d1), min_size=d2, max_size=d2))
                for name in "ABC"
            }
            body = {"q": draw(st.sampled_from([2, 3, 5, "rational"])), "d": [d1, d2], **maps}
            for fault in draw(st.lists(st.sampled_from(["q", "d", "map", "entry", "shape", "key"]), max_size=2)):
                name = draw(st.sampled_from("ABC"))
                if fault == "q":
                    body["q"] = draw(bad_q)
                elif fault == "d":
                    body["d"] = draw(bad_d)
                elif fault == "map":
                    body[name] = draw(junk)
                elif fault == "entry" and d1 and d2 and body.get(name) == maps[name]:
                    body[name][0][0] = draw(entry)
                elif fault == "shape":
                    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
                    body[name] = [[0] * c for _ in range(r)]
                elif fault == "key" and name in body:
                    del body[name]
            return body

        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / "a.json", Path(tmp) / "b.json"]

            @hypothesis.settings(max_examples=150, deadline=None)
            @hypothesis.given(payload(), payload(), st.sampled_from(["stability", "hom-ext", "hom-ext2"]))
            def check(a, b, command):
                for path, body in zip(paths, (a, b)):
                    path.write_text(json.dumps(body), encoding="utf-8")
                if command == "stability":
                    argv = ["quiver", "stability", "--matrices", str(paths[0])]
                else:
                    argv = ["quiver", "hom-ext", "--matrices", *map(str, paths[: 1 + (command == "hom-ext2")])]
                self.run_main(argv)

            check()

    @classmethod
    def fuzz_argv(cls, command, valid, bad, max_examples):
        """``command`` with valid flags, then up to two faults: a bad value, or a flag left out.

        ``valid`` maps each flag to one strategy per value (none for a
        switch), ``bad`` maps each flag that takes values to a strategy for
        a bad one.
        """
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=max_examples, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            values = {flag: [data.draw(s) for s in strategies] for flag, strategies in valid.items()}
            faults = st.lists(st.sampled_from(sorted(valid)), max_size=2) if valid else st.just([])
            for flag in data.draw(faults):
                if data.draw(st.booleans()):
                    values.pop(flag, None)
                elif values.get(flag):
                    values[flag][data.draw(st.integers(0, len(values[flag]) - 1))] = data.draw(bad[flag])
            argv = list(command)
            for flag, args in values.items():
                argv += [flag, *map(str, args)]
            cls.run_main(argv)

        check()

    def test_stability_argv(self):
        st = pytest.importorskip("hypothesis").strategies
        word = st.text("abx.1", min_size=1, max_size=3)
        valid = {
            "--dim": [st.integers(0, 4)] * 2,
            "--field": [st.sampled_from([2, 3, 5])],
            "--seed": [st.integers(-10**9, 10**9)],
        }
        bad = {
            "--dim": st.one_of(st.integers(-3, -1), st.integers(5, 8), st.integers(10**5, 10**12), word),
            "--field": st.one_of(st.sampled_from([7, 4, 1, 0, -2, 1000000007, 10**40]), word),
            "--seed": word,
        }
        self.fuzz_argv(["quiver", "stability"], valid, bad, 200)

    @pytest.mark.parametrize("command", ["bwb", "chain", "restrict", "ulrich"])
    def test_bundle_argv(self, command):
        st = pytest.importorskip("hypothesis").strategies
        word = st.text("abx.1-", min_size=1, max_size=3)
        valid = {"--bundle": [st.sampled_from(CATALOG_NAMES)], "--twist": [st.integers(-12, 12)]}
        bad = {
            "--bundle": st.one_of(st.sampled_from(["u", "Sym2U", ""]), word),
            "--twist": st.one_of(st.integers(-10**12, 10**12), word),
            "--codim": st.one_of(st.integers(-3, -1), st.integers(7, 10**6), word),
        }
        if command in ("restrict", "ulrich"):
            valid.update({"--codim": [st.integers(0, 6)], "--assume-generic": []})
        self.fuzz_argv([command], valid, bad, 50)

    @pytest.mark.parametrize("command", ["chi", "class", "ulrich-chern", "coker", "pairing", "todd"])
    def test_chow_argv(self, command):
        st = pytest.importorskip("hypothesis").strategies
        word = st.text("abx.1-", min_size=1, max_size=3)
        valid = {
            "chi": {"--bundle": [st.sampled_from(sorted(CATALOG_CLASSES))], "--twist": [st.integers(-12, 12)]},
            "class": {"--bundle": [st.sampled_from(sorted(CATALOG_CLASSES))]},
            "todd": {},
        }.get(command, {"--rank": [st.integers(1, 10)]})
        bad = {
            "--bundle": st.one_of(st.sampled_from(["u", "Sym2U", ""]), word),
            "--twist": st.one_of(st.integers(-10**40, 10**40), word),
            "--rank": st.one_of(st.integers(-3, 0), st.integers(10**5, 10**40), word),
        }
        self.fuzz_argv(["chow", command], valid, bad, 30)

    def test_random_argv(self):
        st = pytest.importorskip("hypothesis").strategies
        word = st.text("abx.1", min_size=1, max_size=3)
        valid = {
            "--dim": [st.integers(0, 4)] * 2,
            "--field": [st.sampled_from([2, 3, 5, 7, "rational"])],
            "--seed": [st.integers(-10**9, 10**9)],
        }
        bad = {
            "--dim": st.one_of(st.integers(-3, -1), st.integers(201, 10**12), word),
            "--field": st.one_of(st.sampled_from([4, 1, 0, -2, 10**40, "Q"]), word),
            "--seed": word,
        }
        self.fuzz_argv(["quiver", "random"], valid, bad, 100)


class TestVerify:
    def test_verify_paper_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "paper")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines and all(l.startswith("PASS") for l in lines)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(command, stdout, exit code) of each README line whose comment is its JSON output.

    The comment follows ``#`` on the command's line or opens the next line;
    a trailing ``(exit 2)`` gives the exit code.  Comments that are prose,
    or elide part of the output with ``...``, are not JSON and are skipped.
    """
    lines = README.read_text().splitlines()
    for line, following in zip(lines, lines[1:] + [""]):
        if not line.startswith("fanov5 "):
            continue
        command, _, comment = line.partition("#")
        if not comment and following.startswith("# "):
            comment = following[2:]
        comment = comment.strip()
        code = 2 if comment.endswith("(exit 2)") else 0
        comment = comment.removesuffix("(exit 2)").strip()
        try:
            json.loads(comment)
        except ValueError:
            continue
        yield command.strip(), comment + "\n", code


def test_readme_examples(capsys):
    examples = list(readme_examples())
    assert examples
    for command, expected, expected_code in examples:
        code, out, _ = run_cli(capsys, *shlex.split(command)[1:])
        assert (out, code) == (expected, expected_code), command


def test_readme_quick_tour():
    # README's python block runs as written, in a fresh namespace
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fanov5.cli", "quiver", "moduli-dim", "--dim", "2", "2"],
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert proc.returncode == 0
    assert proc.stdout == "5\n"
