"""Problem, field and model files: exact bytes, exact values, line-numbered errors.

The writers and readers work a whole row or block at a time. These tests
hold them to a restatement of the per-value formulas they replace: every
value written as format(float(x), ".17g") and joined by single spaces,
every token read with float(). Arrays are compared as int64 views, so
-0.0 and the bits of a NaN count.
"""

from pathlib import Path

import numpy as np
import pytest

from poisolve.cli import EXIT_INVALID, main
from poisolve.geometry import SETTINGS, GeometrySpec, generate
from poisolve.grid import (
    FileFormatError,
    load_field,
    load_problem,
    make_problem,
    save_field,
    save_problem,
)
from poisolve.model import init_model, load_model, save_model

from conftest import square_problem

MODELS = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "models").glob("*.model"))

SPECIAL = [-0.0, 5e-324, 1.7976931348623157e308, 1 / 3, 3.0, -12.0, 1e22, 2.0 ** 60]


def _row(values) -> str:
    return " ".join(format(float(x), ".17g") for x in values) + "\n"


def reference_field_text(u) -> str:
    return f"{u.shape[0]} {u.shape[0]}\n" + "".join(_row(r) for r in u)


def reference_problem_text(p) -> str:
    return "".join([
        f"{p.n}\n",
        *(" ".join(str(int(x)) for x in r) + "\n" for r in p.mask),
        "\n",
        *(_row(r) for r in p.b),
        "\n",
        *(_row(r) for r in p.f),
        f"h {format(float(p.h), '.17g')}\n",
    ])


def reference_model_text(m) -> str:
    out = [f"arch {m.arch} depth {m.depth} channels 1\n"]
    for idx, L in enumerate(m.layers):
        out.append(f"layer {idx} in 1 out 1 "
                   f"stride {L.stride} transposed {int(L.transposed)}\n")
        out.append(_row(L.weights.ravel()))
    return "".join(out)


def reference_parse(lines) -> np.ndarray:
    return np.array([[float(t) for t in line.split()] for line in lines])


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def special_field(n=9, seed=0, finite=False):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300, (n, n))
    u.flat[:len(SPECIAL)] = SPECIAL
    u[-2] = np.round(u[-2] * 1e6)  # integer-valued floats
    if not finite:
        u[-1, :4] = [np.nan, np.inf, -np.inf, -np.nan]
    return u


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestWrittenBytes:
    def test_field_matches_per_value_formula(self, tmp_path):
        u = special_field()
        save_field(u, tmp_path / "u.txt")
        assert (tmp_path / "u.txt").read_bytes() == reference_field_text(u).encode()

    def test_field_with_zeros_and_ones(self, tmp_path):
        u = np.eye(5)
        u[0, 1] = -0.0
        save_field(u, tmp_path / "u.txt")
        assert (tmp_path / "u.txt").read_bytes() == reference_field_text(u).encode()

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (9,), (2, 3, 3)])
    def test_field_must_be_square_2d(self, tmp_path, shape):
        with pytest.raises(ValueError, match="square 2D"):
            save_field(np.zeros(shape), tmp_path / "u.txt")
        assert not (tmp_path / "u.txt").exists()

    @pytest.mark.parametrize("n", [17, 257])
    @pytest.mark.parametrize("kind", SETTINGS)
    def test_problem_matches_per_value_formula(self, tmp_path, kind, n):
        p = generate(GeometrySpec(kind=kind, n=n, seed=0))
        save_problem(p, tmp_path / "p.txt")
        assert (tmp_path / "p.txt").read_bytes() == reference_problem_text(p).encode()

    def test_problem_special_values(self, tmp_path):
        n = 9
        mask = np.zeros((n, n), dtype=np.uint8)
        mask[1:-1, 1:-1] = 1
        p = make_problem(mask, special_field(n, seed=1, finite=True),
                         special_field(n, seed=2, finite=True).T, h=1 / 3)
        save_problem(p, tmp_path / "p.txt")
        assert (tmp_path / "p.txt").read_bytes() == reference_problem_text(p).encode()

    @pytest.mark.parametrize("path", MODELS, ids=[m.stem for m in MODELS])
    def test_shipped_models_resave_unchanged(self, tmp_path, path):
        m = load_model(path)
        save_model(m, tmp_path / "m.model")
        out = (tmp_path / "m.model").read_bytes()
        assert out == reference_model_text(m).encode()
        assert out == path.read_bytes()

    def test_model_special_values(self, tmp_path):
        m = init_model("unet2", seed=3)
        m.layers[0].weights.flat[:] = SPECIAL + [2.0 ** -60]
        save_model(m, tmp_path / "m.model")
        assert (tmp_path / "m.model").read_bytes() == reference_model_text(m).encode()

    def test_multichannel_model_rows(self, tmp_path):
        # nets are single-channel; a file with more channels names its line
        save_model(init_model("unet2", seed=3), tmp_path / "m.model")
        text = (tmp_path / "m.model").read_text()
        for old, new, line in [("channels 1", "channels 2", 1),
                               ("layer 3 in 1 out 1", "layer 3 in 2 out 1", 8),
                               ("layer 5 in 1 out 1", "layer 5 in 1 out 3", 12)]:
            assert old in text
            (tmp_path / "m.model").write_text(text.replace(old, new))
            with pytest.raises(FileFormatError, match=f"^line {line}: .*single-channel") as info:
                load_model(tmp_path / "m.model")
            assert info.value.line == line


class TestParsedValues:
    TOKENS = ["1_0", "+.5", "1e400", "-1e400", "1e-400", "-nan", "nan", "Infinity",
              "-inf", "١٢", "5e-324", "-0", "0.0", "1.0", "00001", "1E5",
              "0.1", "-.0", "2.4703282292062328e-324", "1.7976931348623159e308"]

    def test_field_tokens_read_as_float_does(self, tmp_path):
        n = len(self.TOKENS)
        lines = [" ".join(np.roll(self.TOKENS, k)) for k in range(n)]
        write_lines(tmp_path / "u.txt", [f"{n} {n}"] + lines)
        u = load_field(tmp_path / "u.txt")
        assert np.array_equal(bits(u), bits(reference_parse(lines)))

    def test_field_round_trip_bits(self, tmp_path):
        u = special_field(12, seed=4, finite=True)  # "nan" drops a NaN's sign
        u[-1, :2] = [np.inf, -np.inf]
        save_field(u, tmp_path / "u.txt")
        assert np.array_equal(bits(load_field(tmp_path / "u.txt")), bits(u))

    @pytest.mark.parametrize("tokens", [["0", "1"], ["1", "0", "1.0"], ["1", "-0"],
                                        ["0", "1", "7", "\u0663"]],
                             ids=["digits", "with-1.0", "with-minus-zero", "other-digits"])
    def test_zero_one_blocks_read_as_float_does(self, tmp_path, tokens):
        n = 7
        rng = np.random.default_rng(5)
        lines = [" ".join(rng.choice(tokens, n)) for _ in range(n)]
        write_lines(tmp_path / "u.txt", [f"{n} {n}"] + lines)
        u = load_field(tmp_path / "u.txt")
        assert np.array_equal(bits(u), bits(reference_parse(lines)))

    @pytest.mark.parametrize("kind", SETTINGS)
    def test_problem_blocks_read_as_float_does(self, tmp_path, kind):
        n = 17
        save_problem(generate(GeometrySpec(kind=kind, n=n, seed=1)), tmp_path / "p.txt")
        lines = (tmp_path / "p.txt").read_text().splitlines()
        q = load_problem(tmp_path / "p.txt")
        assert np.array_equal(q.mask, reference_parse(lines[1:1 + n]))
        assert np.array_equal(bits(q.b), bits(reference_parse(lines[2 + n:2 + 2 * n])))
        assert np.array_equal(bits(q.f), bits(reference_parse(lines[3 + 2 * n:3 + 3 * n])))
        assert q.h == float(lines[-1].split()[1])

    def test_model_round_trip_bits(self, tmp_path):
        for path in MODELS:
            m = load_model(path)
            rows = [line for line in path.read_text().splitlines()
                    if not line.startswith(("arch", "layer"))]
            got = np.concatenate([L.weights.reshape(-1, 9) for L in m.layers])
            assert np.array_equal(bits(got), bits(reference_parse(rows)))

    def test_mask_accepts_decimal_tokens(self, tmp_path):
        p = square_problem(9)
        save_problem(p, tmp_path / "p.txt")
        lines = (tmp_path / "p.txt").read_text().splitlines()
        for i in (1, 4, 9):
            lines[i] = " ".join(t + ".0" for t in lines[i].split())
        lines[5] = lines[5].replace("1", "1e0")
        write_lines(tmp_path / "q.txt", lines)
        q = load_problem(tmp_path / "q.txt")
        assert np.array_equal(q.mask, p.mask) and q.mask.dtype == np.uint8


class TestFirstMalformedRow:
    """Whatever is wrong with it, the first malformed row is the one reported."""

    @staticmethod
    def field_lines(n=6):
        return [f"{n} {n}"] + [" ".join(["0.5"] * n) for _ in range(n)]

    @pytest.mark.parametrize("second", ["short", "long"])
    def test_field_bad_token_before_structural_error(self, tmp_path, second):
        lines = self.field_lines()
        lines[2] = lines[2].replace("0.5", "x", 1)  # row 1, line 3
        lines[4] = "1 2" if second == "short" else lines[4] + " 1"
        write_lines(tmp_path / "u.txt", lines)
        with pytest.raises(FileFormatError, match="^line 3: bad numeric value") as err:
            load_field(tmp_path / "u.txt")
        assert err.value.line == 3

    def test_field_structural_error_before_bad_token(self, tmp_path):
        lines = self.field_lines()
        lines[2] = "1 2"
        lines[4] = lines[4].replace("0.5", "x", 1)
        write_lines(tmp_path / "u.txt", lines)
        with pytest.raises(FileFormatError, match="^line 3: field row has 2 values") as err:
            load_field(tmp_path / "u.txt")
        assert err.value.line == 3

    def test_field_first_of_two_bad_tokens(self, tmp_path):
        lines = self.field_lines()
        lines[4] = lines[4].replace("0.5", "nan?", 1)
        lines[6] = lines[6].replace("0.5", "x", 1)
        write_lines(tmp_path / "u.txt", lines)
        with pytest.raises(FileFormatError) as err:
            load_field(tmp_path / "u.txt")
        assert err.value.line == 5

    @pytest.mark.parametrize("block, first", [("mask", 2), ("boundary-value", 20),
                                              ("source", 38)])
    def test_problem_bad_token_before_short_row(self, tmp_path, p17, block, first):
        save_problem(p17, tmp_path / "p.txt")
        lines = (tmp_path / "p.txt").read_text().splitlines()
        r = 3
        row = lines[first - 1 + r].split()
        row[5] = "0,5"
        lines[first - 1 + r] = " ".join(row)
        lines[first - 1 + r + 2] = "0 0"
        write_lines(tmp_path / "p.txt", lines)
        with pytest.raises(FileFormatError,
                           match=f"^line {first + r}: bad numeric value in {block} block"):
            load_problem(tmp_path / "p.txt")

    def test_problem_bad_token_before_end_of_file(self, tmp_path, p17):
        save_problem(p17, tmp_path / "p.txt")
        lines = (tmp_path / "p.txt").read_text().splitlines()
        row = lines[40].split()
        row[3] = "--1"
        lines[40] = " ".join(row)
        write_lines(tmp_path / "p.txt", lines[:45])
        with pytest.raises(FileFormatError, match="^line 41: bad numeric value in source"):
            load_problem(tmp_path / "p.txt")

    def test_problem_short_row_before_bad_token(self, tmp_path, p17):
        save_problem(p17, tmp_path / "p.txt")
        lines = (tmp_path / "p.txt").read_text().splitlines()
        lines[4] = "0 1"
        lines[6] = lines[6].replace("0", "z", 1)
        write_lines(tmp_path / "p.txt", lines)
        with pytest.raises(FileFormatError, match="^line 5: mask row has 2 values, expected 17"):
            load_problem(tmp_path / "p.txt")

    def test_problem_mask_value_error_names_its_row(self, tmp_path, p17):
        save_problem(p17, tmp_path / "p.txt")
        lines = (tmp_path / "p.txt").read_text().splitlines()
        lines[7] = lines[7].replace("1", "2", 1)
        write_lines(tmp_path / "p.txt", lines)
        with pytest.raises(FileFormatError, match="^line 8: mask cells must be 0 or 1"):
            load_problem(tmp_path / "p.txt")


class TestContentErrors:
    """Values that break a Problem invariant are reported on their line."""

    N = 17
    H_LINE = 4 + 3 * N

    def edited(self, tmp_path, p, edit):
        save_problem(p, tmp_path / "p.txt")
        lines = (tmp_path / "p.txt").read_text().splitlines()
        edit(lines)
        write_lines(tmp_path / "p.txt", lines)
        return tmp_path / "p.txt"

    @staticmethod
    def set_cell(lines, lineno, col, token):
        row = lines[lineno - 1].split()
        row[col] = token
        lines[lineno - 1] = " ".join(row)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0", "-1", "-1e-300"])
    def test_bad_mesh_width(self, tmp_path, p17, value):
        def edit(lines):
            lines[-1] = f"h {value}"

        path = self.edited(tmp_path, p17, edit)
        with pytest.raises(FileFormatError, match="mesh width") as err:
            load_problem(path)
        assert err.value.line == self.H_LINE

    @pytest.mark.parametrize("block, first", [("boundary-value", 3 + N), ("source", 4 + 2 * N)])
    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_block_value(self, tmp_path, p17, block, first, value):
        def edit(lines):
            self.set_cell(lines, first + 6, 9, value)
            self.set_cell(lines, first + 11, 2, "nan")

        path = self.edited(tmp_path, p17, edit)
        with pytest.raises(FileFormatError, match=f"finite.*{block}") as err:
            load_problem(path)
        assert err.value.line == first + 6

    def test_non_finite_boundary_value_on_interior_cell(self, tmp_path, p17):
        """b is zeroed inside, but a non-finite token there is still malformed."""
        path = self.edited(tmp_path, p17,
                           lambda lines: self.set_cell(lines, 3 + self.N + 8, 8, "inf"))
        with pytest.raises(FileFormatError, match="finite") as err:
            load_problem(path)
        assert err.value.line == 3 + self.N + 8

    @pytest.mark.parametrize("row, col", [(0, 5), (4, 0), (9, 16), (16, 3)])
    def test_interior_cell_on_frame(self, tmp_path, p17, row, col):
        def edit(lines):
            self.set_cell(lines, 2 + row, col, "1")
            self.set_cell(lines, 2 + 16, 8, "1")

        path = self.edited(tmp_path, p17, edit)
        with pytest.raises(FileFormatError, match="frame") as err:
            load_problem(path)
        assert err.value.line == 2 + row

    def test_first_content_error_in_file_order(self, tmp_path, p17):
        def edit(lines):
            self.set_cell(lines, 3 + self.N + 2, 0, "nan")
            self.set_cell(lines, 2 + 12, 0, "1")
            lines[-1] = "h 0"

        path = self.edited(tmp_path, p17, edit)
        with pytest.raises(FileFormatError, match="frame") as err:
            load_problem(path)
        assert err.value.line == 14

    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_make_problem_rejects_mesh_width(self, p17, h):
        with pytest.raises(ValueError, match="mesh width must be finite and positive"):
            make_problem(p17.mask, p17.b, p17.f, h=h)

    def test_cli_exit_code(self, tmp_path, p17, capsys):
        def edit(lines):
            lines[-1] = "h nan"

        path = self.edited(tmp_path, p17, edit)
        code = main(["solve", "--problem", str(path), "--solver", "jacobi"])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID
        assert f"line {self.H_LINE}: mesh width" in err

    def test_mask_without_interior_cell(self, tmp_path, capsys):
        n = 5
        rows = [" ".join(["0"] * n)] * n
        write_lines(tmp_path / "p.txt", [str(n), *rows, "", *rows, "", *rows, "h 0.25"])
        with pytest.raises(FileFormatError, match="no interior cells") as err:
            load_problem(tmp_path / "p.txt")
        assert err.value.line == 2
        code = main(["solve", "--problem", str(tmp_path / "p.txt"), "--solver", "jacobi"])
        assert code == EXIT_INVALID
        assert "line 2: problem has no interior cells" in capsys.readouterr().err
