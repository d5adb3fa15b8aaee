"""Grid fields, geometry masks, and the discretized Poisson system.

A field is a plain (n, n) float64 array; the stencil and the iterator
steps also take a stack of fields, shape (..., n, n), and treat each
slice on its own. A :class:`Problem` bundles the geometry mask, Dirichlet
boundary values, and source term for one discretized instance of the
Poisson problem on the unit square with mesh width h = 1/(n-1). The
discrete system solved throughout this package is

    (4*u[i,j] - u[i-1,j] - u[i+1,j] - u[i,j-1] - u[i,j+1]) / h**2 = f[i,j]

at interior cells (i.e. -laplacian(u) = f) together with u = b on boundary
cells. The sign is fixed by the averaging sweep in :mod:`poisolve.iterators`,
whose fixed point must satisfy the residual definition below.

All 5-point arithmetic runs in two kernels: :func:`_stencil`, the one
sweep, plain or damped (which the iterators' steps and so the training
adjoint call), and :func:`residual`, the one f - A u. Both start from
:func:`_neighbour_sum`, which views a field, or a stack of fields,
as one flat run of cells in row order, so the four neighbours of each
cell in rows 1..n-2 of its field are contiguous slices at offsets -n, +n,
-1, +1, summed N + S, + W, + E into the output buffer with no padded
copy; each kernel finishes its update on that run in place, with no
callback. Columns 0 and n-1 then hold wrapped values and rows 0 and n-1
values read across fields or none; all of them are exterior cells
(mask != 1), because the outermost frame is always boundary (mask = 0),
which make_problem enforces and dataclasses.replace keeps. Every exterior
cell is then written by its flat index: with b by :func:`set_boundary`,
the one boundary writer, which every step ends with (so no correction
added before it is masked, and no f at an exterior cell is read) and
which masks training's errors and adjoints on their b = 0 problem; with
0 by residual (laplacian_apply is residual on the f = 0 problem framed
by the outermost cells). A Problem builds its mask's exterior indices and
coarse chain once, and dataclasses.replace passes them on while the mask
is the same object (see :class:`Exterior`), so no step compares the mask.
Interior cells see the same operations in the same order as the
zero-padded slice formulas, so results match those bit for bit (the
tests hold them as references).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

Field = np.ndarray


class FileFormatError(ValueError):
    """Malformed field or problem file. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Exterior(dict):
    """A mask's exterior cells (mask != 1), b's values there, and the
    mask's coarse chain.

    index holds the cells' flat row-major indices in one (n, n) field.
    coarse is the Exterior, with b = 0, of the injected mask mask[::2, ::2]
    (a coarse cell is interior only if its aligned fine cell is); it is
    None where n - 1 is odd or that mask has no interior cell. Both depend
    on the mask alone: the mask's first Exterior builds them on first use,
    and one made from it for another b (source) reads them there. self[shape]
    is (cells, values) for a C-ordered (..., n, n) array: index repeated in
    every field, offset by the field's start, and b, broadcast against the
    stack, at those cells. It is built on the first lookup of each shape
    and kept, so a sweep writes its frame with one indexed assignment.
    """

    def __init__(self, mask: np.ndarray, b: np.ndarray, source: Exterior | None = None):
        super().__init__()
        self.mask = mask
        self.b = b
        # the mask's first Exterior, which builds index and coarse
        self.source = source if source is None or source.source is None else source.source

    @cached_property
    def index(self) -> np.ndarray:
        if self.source is not None:
            return self.source.index
        return np.flatnonzero(self.mask.reshape(-1) != 1)

    @cached_property
    def coarse(self) -> Exterior | None:
        if self.source is not None:
            return self.source.coarse
        if self.mask.shape[0] % 2 == 0:
            return None
        mask = self.mask[::2, ::2].copy()
        if not mask.any():
            return None
        b = np.zeros(mask.shape)
        mask.flags.writeable = b.flags.writeable = False
        return Exterior(mask, b)

    def __missing__(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        n = self.mask.shape[0]
        if shape[-2:] != (n, n):
            raise ValueError(f"field shape {shape} does not match problem n={n}")
        lead = shape[:-2]
        offsets = n * n * np.arange(math.prod(lead))
        cells = (offsets[:, None] + self.index).reshape(-1)
        values = self.b.reshape(self.b.shape[:-2] + (n * n,))[..., self.index]
        values = np.broadcast_to(values, lead + self.index.shape).reshape(-1)
        self[shape] = cells, values
        return cells, values


@dataclass(frozen=True)
class Problem:
    """One discretized PDE instance.

    mask is 1 at interior cells (unknowns) and 0 at boundary/exterior
    cells, whose values are prescribed by b. The outermost frame is always
    boundary so the 5-point stencil never reads off-grid. b is zero at
    interior cells; f may be nonzero anywhere but only its interior values
    enter the equations. n is the mask's, also after dataclasses.replace.

    What the sweeps read besides the arrays is derived from them, once,
    since they are never written after the Problem is built. exterior
    (see Exterior) is left to __post_init__: dataclasses.replace passes
    it on, and it is rebuilt only for another mask object, its b values
    alone for another b. scaled_source and homogeneous are built on
    their first use.
    """

    mask: np.ndarray
    b: np.ndarray
    f: np.ndarray
    h: float
    exterior: Exterior | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        exterior = self.exterior
        if exterior is None or exterior.mask is not self.mask:
            exterior = Exterior(self.mask, self.b)
        elif exterior.b is not self.b:
            exterior = Exterior(self.mask, self.b, exterior)
        object.__setattr__(self, "exterior", exterior)

    @property
    def n(self) -> int:
        return self.mask.shape[0]

    @cached_property
    def scaled_source(self) -> np.ndarray | None:
        """(h^2/4) f over rows 1..n-2, the term a sweep adds; None if f has
        no nonzero cell, since adding (h^2/4) * 0 would change no value."""
        if not self.f.any():
            return None
        return 0.25 * self.h * self.h * self.f[..., 1:-1, :]

    @cached_property
    def homogeneous(self) -> Problem:
        """This geometry with b = f = 0, sharing the mask's Exterior data; the
        zeros are one read-only broadcast value, so the twin keeps no n x n buffer."""
        zeros = np.broadcast_to(0.0, self.mask.shape)
        return replace(self, b=zeros, f=zeros)

    @property
    def interior_count(self) -> int:
        return int(self.mask.sum())


def make_problem(mask, b, f, h: float | None = None) -> Problem:
    """Validate inputs and build an immutable Problem.

    b is zeroed at interior cells so that reset/boundary identities hold
    exactly. h defaults to 1/(n-1) (unit square).
    """
    mask = np.asarray(mask)
    b = np.asarray(b, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise ValueError(f"mask must be square 2D, got shape {mask.shape}")
    n = mask.shape[0]
    if n < 3:
        raise ValueError(f"grid size must be at least 3, got {n}")
    if b.shape != (n, n) or f.shape != (n, n):
        raise ValueError(
            f"shape mismatch: mask {mask.shape}, b {b.shape}, f {f.shape}"
        )
    if not ((mask == 0) | (mask == 1)).all():
        raise ValueError("mask cells must be 0 or 1")
    mask = mask.astype(np.uint8)
    frame = np.concatenate([mask[0], mask[-1], mask[:, 0], mask[:, -1]])
    if frame.any():
        raise ValueError("outermost frame must be boundary (mask = 0)")
    if not mask.any():
        raise ValueError("problem has no interior cells")
    if not (np.isfinite(b).all() and np.isfinite(f).all()):
        raise ValueError("boundary values and source must be finite")
    if h is None:
        h = 1.0 / (n - 1)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"mesh width must be finite and positive, got {h}")
    b = np.where(mask == 1, 0.0, b)
    b.flags.writeable = False
    f = f.copy()
    f.flags.writeable = False
    mask.flags.writeable = False
    return Problem(mask=mask, b=b, f=f, h=float(h))


@dataclass
class CostReport:
    """Iteration and multiply-add accounting for one solve run."""

    iterations: int
    conv_layers: int
    mul_adds: int
    final_relative_error: float
    converged: bool


def _neighbour_sum(u: Field, n: int) -> tuple[Field, Field, Field]:
    """A new output buffer, the flat run in it, and u's own run.

    The run goes from row 1 of the first field to row n-2 of the last and
    holds ((N + S) + W) + E of u (see the module docstring); the cells of
    the buffer outside it are left for the caller to write.
    """
    out = np.empty(u.shape)
    flat = out.reshape(-1)
    m = flat.size
    s = flat[n:m - n]
    uf = u.reshape(-1)
    np.add(uf[:-2 * n], uf[2 * n:], s)
    s += uf[n - 1:m - n - 1]
    s += uf[n + 1:m - n + 1]
    return out, s, uf[n:m - n]


def _stencil(u: Field, p: Problem, omega: float | None) -> Field:
    """One sweep of a field or stack of fields u on p, with reset.

    The plain Jacobi update (N + S + W + E)/4 + (h^2/4) f if omega is
    None, else that update damped by omega, (1 - omega) u + omega (...),
    run in place on the neighbour sum; then every exterior cell, which
    includes each cell outside that run, takes its value of b.
    """
    out, s, own = _neighbour_sum(u, p.n)
    s *= 0.25
    source = p.scaled_source
    if source is not None:
        out[..., 1:-1, :] += source
    if omega is not None:
        s *= omega
        s += (1.0 - omega) * own
    return set_boundary(out, p)


def set_boundary(a: Field, p: Problem) -> Field:
    """a, a C-contiguous field or stack, with b written at its exterior cells in place."""
    if not a.flags.c_contiguous:  # the write would land in a flat copy of a
        raise ValueError("set_boundary writes in place and needs a C-contiguous array")
    cells, values = p.exterior[a.shape]
    a.reshape(-1)[cells] = values
    return a


def laplacian_apply(u: Field, h: float) -> Field:
    """5-point discrete Laplacian, zero on the outermost frame.

    At non-frame cells returns
    (u[i-1,j] + u[i+1,j] + u[i,j-1] + u[i,j+1] - 4*u[i,j]) / h**2 = -A u,
    the residual of u, a field or stack, on the f = 0 problem on that frame.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim < 2 or u.shape[-2] != u.shape[-1] or u.shape[-1] < 3:
        raise ValueError(f"need a square grid of size >= 3, got shape {u.shape}")
    mask = np.pad(np.ones((u.shape[-1] - 2,) * 2), 1)
    return residual(u, make_problem(mask, 0 * mask, 0 * mask, h))


def residual(u: Field, p: Problem) -> Field:
    """f - A u at interior cells (A = -discrete laplacian), zero elsewhere.

    u may be a stack, shape (..., n, n); p.f broadcasts against it.
    """
    out, s, own = _neighbour_sum(u, p.n)
    s -= 4.0 * own
    s /= p.h * p.h
    out[..., 1:-1, :] += p.f[..., 1:-1, :]
    out.reshape(-1)[p.exterior[out.shape][0]] = 0.0
    return out


def reset(u: Field, p: Problem) -> Field:
    """Overwrite boundary cells of u with the prescribed values b."""
    if u.shape != (p.n, p.n):
        raise ValueError(f"field shape {u.shape} does not match problem n={p.n}")
    return set_boundary(np.array(u, dtype=np.float64, order="C"), p)


def residual_norms(p: Problem, u: Field) -> tuple[float, float]:
    """Max-norm equation residual at interior cells and boundary violation.

    interior: max |residual(u, p)| = max |(-laplacian u) - f| over mask == 1
    boundary: max |u[i,j] - b[i,j]| over mask == 0
    """
    if u.shape != (p.n, p.n):
        raise ValueError(f"field shape {u.shape} does not match problem n={p.n}")
    interior = float(np.abs(residual(u, p)).max())
    cells, values = p.exterior[u.shape]
    boundary = float(np.abs(u.reshape(-1)[cells] - values).max())
    return interior, boundary


def l2_norm(u: Field) -> float:
    """||u||_2 over all cells, bit for bit what np.linalg.norm returns.

    np.vdot sums the same squares with less per-call overhead, and it
    leaves numpy's floating-point error state alone, so a norm that
    overflows is inf with no RuntimeWarning; callers read inf as
    divergence.
    """
    return math.sqrt(np.vdot(u, u))


def _relative_error_to(u_star: Field):
    """u -> relative_error(u, u_star), with ||u*|| taken once and one
    u - u* buffer that every call rewrites."""
    denom = l2_norm(u_star)
    scale = denom if denom > 0 else 1.0
    diff = np.empty(u_star.shape)

    def error(u: Field) -> float:
        if u.shape != u_star.shape:
            raise ValueError(f"shape mismatch: {u.shape} vs {u_star.shape}")
        np.subtract(u, u_star, diff)
        return l2_norm(diff) / scale
    return error


def relative_error(u: Field, u_star: Field) -> float:
    """||u - u*||_2 / ||u*||_2 over all cells; absolute norm ||u - u*||_2 if u* = 0."""
    return _relative_error_to(u_star)(u)


# ------------------------------------------------------------------
# File I/O (layouts in README "File formats"). ASCII text, one grid row
# per line, LF line ends; float values are written "%.17g" (17
# significant digits, so every float64 round-trips bit for bit) and
# separated by single spaces, mask cells as the digits 0 and 1. Generated
# problems repeat rows (constant boundary data per side or disk, a zero
# source), so both sides work one run of equal rows at a time. Writers
# format a row with one %-template only when its bits differ from the row
# above (bits, not values: 0.0 == -0.0, yet they print "0" and "-0"), and
# repeat its text otherwise. Readers split a line only when it differs
# from the line above, count-check the rows of a block in order, convert
# the first row of every run in one numpy call, which reads every token
# exactly as float() does, and repeat it down the run. Bytes and values
# are those of a row-by-row writer and reader. A malformed file, or one
# whose values break a Problem invariant, raises FileFormatError naming
# its first offending line.
# ------------------------------------------------------------------

def _write_rows(fh, a) -> None:
    """Write a 2-D array one line per row: "%.17g" values, single spaces.

    Each run of rows with equal bits is formatted once.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    bits = a.view(np.uint64)
    new = np.ones(len(a), dtype=bool)
    new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(a)))
    line = " ".join(["%.17g"] * a.shape[1]) + "\n"
    for row, count in zip(a[starts].tolist(), counts.tolist()):
        fh.write((line % tuple(row)) * count)


def _floats(token_rows: list[list[str]], counts: list[int], width: int,
            first_line: int, message: str) -> np.ndarray:
    """Runs of rows of `width` decimal tokens, from line first_line on, as float64.

    token_rows[k] is the row of counts[k] equal lines in a row; each is
    converted once and repeated down its run. Blocks made only of "0" and
    "1" tokens (masks, zero sources) are read from their bytes; the test
    stops at the first row with another token. Any other block is
    converted in one call; only if that fails are its rows tried one by
    one, so the FileFormatError (carrying message) names the first line
    with a bad token.
    """
    digits = []
    for tokens in token_rows:
        row = "".join(tokens)
        if len(row) != width or row.count("0") + row.count("1") != width:
            break
        digits.append(row)
    else:
        cells = np.frombuffer("".join(digits).encode("ascii"), dtype=np.uint8)
        block = np.subtract(cells, ord("0"), dtype=np.float64).reshape(-1, width)
        return np.repeat(block, counts, axis=0)
    try:
        block = np.array(token_rows, dtype=np.float64)
    except ValueError:
        line = first_line
        for tokens, count in zip(token_rows, counts):
            try:
                np.array(tokens, dtype=np.float64)
            except ValueError:
                raise FileFormatError(message, line) from None
            line += count
        raise
    return np.repeat(block, counts, axis=0)


def _parse_block(lines, start: int, n: int, what: str) -> np.ndarray:
    """Lines start .. start+n-1 (1-based) as an (n, n) float64 block.

    A line equal to the one above it reuses that line's tokens. A short
    file or a row of the wrong width is reported only after the rows
    above it have converted, so the first malformed row wins, whatever is
    wrong with it.
    """
    rows, counts, error, previous = [], [], None, None
    for lineno in range(start, start + n):
        if lineno > len(lines):
            error = FileFormatError(f"unexpected end of file in {what} block", lineno)
            break
        line = lines[lineno - 1]
        if line == previous:
            counts[-1] += 1
            continue
        tokens = line.split()
        if len(tokens) != n:
            error = FileFormatError(
                f"{what} row has {len(tokens)} values, expected {n}", lineno
            )
            break
        rows.append(tokens)
        counts.append(1)
        previous = line
    block = _floats(rows, counts, n, start, f"bad numeric value in {what} block")
    if error is not None:
        raise error
    return block


def _check_rows(bad: np.ndarray, first_line: int, message: str) -> None:
    """Raise FileFormatError on the first row of a block with a bad cell."""
    rows = bad.any(axis=1)
    if rows.any():
        raise FileFormatError(message, first_line + int(rows.argmax()))


def _check_end(lines, last: int, what: str) -> None:
    """Raise FileFormatError on the first non-blank line after line last."""
    for lineno in range(last + 1, len(lines) + 1):
        if lines[lineno - 1].strip():
            raise FileFormatError(f"unexpected content after the {what}", lineno)


def save_field(u: Field, path) -> None:
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"field must be square 2D, got shape {u.shape}")
    n = u.shape[0]
    with open(path, "w") as fh:
        fh.write(f"{n} {n}\n")
        _write_rows(fh, u)


def load_field(path) -> Field:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FileFormatError("empty field file", 1)
    header = lines[0].split()
    if len(header) != 2:
        raise FileFormatError("field header must be 'n n'", 1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise FileFormatError("field header must be two integers", 1)
    if n != m or n < 1:
        raise FileFormatError(f"bad field dimensions {n} x {m}", 1)
    if len(lines) < 1 + n:
        raise FileFormatError(f"expected {n} data rows", len(lines) + 1)
    u = _parse_block(lines, 2, n, "field")
    _check_end(lines, 1 + n, "last field row")
    return u


def save_problem(p: Problem, path) -> None:
    # mask rows are built as bytes: each cell's digit, then a space or LF
    cells = np.full((p.n, 2 * p.n), ord(" "), dtype=np.uint8)
    cells[:, ::2] = p.mask + ord("0")
    cells[:, -1] = ord("\n")
    with open(path, "w") as fh:
        fh.write(f"{p.n}\n")
        fh.write(cells.tobytes().decode("ascii"))
        fh.write("\n")
        _write_rows(fh, p.b)
        fh.write("\n")
        _write_rows(fh, p.f)
        fh.write("h %.17g\n" % p.h)


def load_problem(path) -> Problem:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FileFormatError("empty problem file", 1)
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise FileFormatError("problem header must be a single integer n", 1)
    if n < 3:
        raise FileFormatError(f"grid size {n} too small", 1)

    mask = _parse_block(lines, 2, n, "mask")
    _check_rows((mask != 0) & (mask != 1), 2, "mask cells must be 0 or 1")
    frame = np.ones((n, n), dtype=bool)
    frame[1:-1, 1:-1] = False
    _check_rows((mask == 1.0) & frame, 2, "outermost frame must be boundary (mask = 0)")
    if not mask.any():
        raise FileFormatError("problem has no interior cells", 2)

    def expect_blank(lineno):
        if lineno > len(lines) or lines[lineno - 1].strip():
            raise FileFormatError("expected blank separator line", lineno)

    expect_blank(2 + n)
    b = _parse_block(lines, 3 + n, n, "boundary-value")
    _check_rows(~np.isfinite(b), 3 + n, "non-finite value in boundary-value block")
    expect_blank(3 + 2 * n)
    f = _parse_block(lines, 4 + 2 * n, n, "source")
    _check_rows(~np.isfinite(f), 4 + 2 * n, "non-finite value in source block")
    h_lineno = 4 + 3 * n
    if h_lineno > len(lines):
        raise FileFormatError("missing trailing 'h <decimal>' line", h_lineno)
    tokens = lines[h_lineno - 1].split()
    if len(tokens) != 2 or tokens[0] != "h":
        raise FileFormatError("final line must be 'h <decimal>'", h_lineno)
    try:
        h = float(tokens[1])
    except ValueError:
        raise FileFormatError("bad mesh width value", h_lineno)
    if not (math.isfinite(h) and h > 0):
        raise FileFormatError(f"mesh width must be finite and positive, got {h}", h_lineno)
    _check_end(lines, h_lineno, "'h' line")
    return make_problem(mask.astype(np.uint8), b, f, h=h)
