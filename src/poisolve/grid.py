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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Field = np.ndarray


class FileFormatError(ValueError):
    """Malformed field or problem file. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Problem:
    """One discretized PDE instance.

    mask is 1 at interior cells (unknowns) and 0 at boundary/exterior
    cells, whose values are prescribed by b. The outermost frame is always
    boundary so the 5-point stencil never reads off-grid. b is zero at
    interior cells; f may be nonzero anywhere but only its interior values
    enter the equations.
    """

    mask: np.ndarray
    b: np.ndarray
    f: np.ndarray
    n: int
    h: float

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
    if not np.isin(mask, (0, 1)).all():
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
    if h <= 0:
        raise ValueError(f"mesh width must be positive, got {h}")
    b = np.where(mask == 1, 0.0, b)
    b.flags.writeable = False
    f = f.copy()
    f.flags.writeable = False
    mask.flags.writeable = False
    return Problem(mask=mask, b=b, f=f, n=n, h=float(h))


@dataclass
class CostReport:
    """Iteration and multiply-add accounting for one solve run."""

    iterations: int
    conv_layers: int
    mul_adds: int
    final_relative_error: float
    converged: bool


def laplacian_apply(u: Field, h: float) -> Field:
    """5-point discrete Laplacian, zero on the outermost frame.

    At non-frame cells returns
    (u[i-1,j] + u[i+1,j] + u[i,j-1] + u[i,j+1] - 4*u[i,j]) / h**2.
    u may be a stack of fields, shape (..., n, n).
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim < 2 or u.shape[-2] != u.shape[-1] or u.shape[-1] < 3:
        raise ValueError(f"need a square grid of size >= 3, got shape {u.shape}")
    out = np.zeros_like(u)
    out[..., 1:-1, 1:-1] = (
        u[..., :-2, 1:-1] + u[..., 2:, 1:-1] + u[..., 1:-1, :-2] + u[..., 1:-1, 2:]
        - 4.0 * u[..., 1:-1, 1:-1]
    ) / (h * h)
    return out


def reset(u: Field, p: Problem) -> Field:
    """Overwrite boundary cells of u with the prescribed values b."""
    if u.shape != (p.n, p.n):
        raise ValueError(f"field shape {u.shape} does not match problem n={p.n}")
    return np.where(p.mask == 1, u, p.b)


def residual_norms(p: Problem, u: Field) -> tuple[float, float]:
    """Max-norm equation residual at interior cells and boundary violation.

    interior: max |(-laplacian u)[i,j] - f[i,j]| over mask == 1
    boundary: max |u[i,j] - b[i,j]| over mask == 0
    """
    if u.shape != (p.n, p.n):
        raise ValueError(f"field shape {u.shape} does not match problem n={p.n}")
    au = -laplacian_apply(u, p.h)
    interior = float(np.abs(np.where(p.mask == 1, au - p.f, 0.0)).max())
    boundary = float(np.abs(np.where(p.mask == 0, u - p.b, 0.0)).max())
    return interior, boundary


def l2_norm(u: Field) -> float:
    """||u||_2 over all cells, bit for bit what np.linalg.norm returns.

    np.vdot sums the same squares with less per-call overhead, and it
    leaves numpy's floating-point error state alone, so a norm that
    overflows is inf with no RuntimeWarning; callers read inf as
    divergence.
    """
    return math.sqrt(np.vdot(u, u))


def relative_error(u: Field, u_star: Field) -> float:
    """||u - u*||_2 / ||u*||_2 over all cells; absolute norm if u* = 0."""
    if u.shape != u_star.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {u_star.shape}")
    diff = l2_norm(u - u_star)
    denom = l2_norm(u_star)
    return diff / denom if denom > 0 else diff


# ------------------------------------------------------------------
# File I/O. Decimal text at >= 17 significant digits so that float64
# round-trips bit-for-bit.
# ------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_block(lines, start: int, n: int, what: str) -> np.ndarray:
    rows = []
    for k in range(n):
        lineno = start + k
        if lineno > len(lines):
            raise FileFormatError(f"unexpected end of file in {what} block", lineno)
        tokens = lines[lineno - 1].split()
        if len(tokens) != n:
            raise FileFormatError(
                f"{what} row has {len(tokens)} values, expected {n}", lineno
            )
        try:
            rows.append([float(t) for t in tokens])
        except ValueError:
            raise FileFormatError(f"bad numeric value in {what} block", lineno)
    return np.array(rows, dtype=np.float64)


def save_field(u: Field, path) -> None:
    n = u.shape[0]
    with open(path, "w") as fh:
        fh.write(f"{n} {n}\n")
        for row in u:
            fh.write(" ".join(_fmt(x) for x in row) + "\n")


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
    return _parse_block(lines, 2, n, "field")


def save_problem(p: Problem, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{p.n}\n")
        for row in p.mask:
            fh.write(" ".join(str(int(x)) for x in row) + "\n")
        fh.write("\n")
        for row in p.b:
            fh.write(" ".join(_fmt(x) for x in row) + "\n")
        fh.write("\n")
        for row in p.f:
            fh.write(" ".join(_fmt(x) for x in row) + "\n")
        fh.write(f"h {_fmt(p.h)}\n")


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
    if not np.isin(mask, (0.0, 1.0)).all():
        bad = int(np.argwhere(~np.isin(mask, (0.0, 1.0)))[0][0])
        raise FileFormatError("mask cells must be 0 or 1", 2 + bad)

    def expect_blank(lineno):
        if lineno > len(lines) or lines[lineno - 1].strip():
            raise FileFormatError("expected blank separator line", lineno)

    expect_blank(2 + n)
    b = _parse_block(lines, 3 + n, n, "boundary-value")
    expect_blank(3 + 2 * n)
    f = _parse_block(lines, 4 + 2 * n, n, "source")
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
    return make_problem(mask.astype(np.uint8), b, f, h=h)
