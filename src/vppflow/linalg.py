"""Sparse operator assembly, the Krylov solver and the exact transform solves.

Unknown ordering packs interior u faces first (i = 1..nx-1, all j, row
major) and interior v faces after (all i, j = 1..ny-1). Boundary faces
carry prescribed values (zero for both the Dirichlet prediction and the
normal-zero correction) and are eliminated from every system, so the
reduced space has the uniform face weight hx*hy and plain vector dot
products realize the discrete L2 pairing up to that constant factor.

Operator structure:

* the divergence D (packed faces to cells) and the gradient G = -D^T are
  stencils applied with no matrix (apply_divergence, apply_gradient), so
  G = -D^T holds exactly and makes grad and div adjoint.
* the viscous block is mu times S, the matrix _write_strain writes: the
  Hessian of the discrete strain energy 2(exx^2 + eyy^2) + gamma^2, so
  -div(2 mu D(.)) is symmetric positive semi-definite by construction and
  reproduces the matrix-free strain-divergence stencil row by row.
* the convection antisymmetrizes the staggered divergence-form flux
  matrix, C = (K - K^T)/2. This is a second-order discretization of the
  advective form plus half the advecting field's divergence, and it makes
  the convective quadratic form vanish exactly, not just to O(h^2).
* every operator is a Csr, a frozen compressed-sparse-row matrix whose
  arrays are read-only; only this module knows the format. S and the
  prediction operators share one 9-slot pattern, the one part of them
  cached per grid: indptr = 9 * arange(n + 1) and int32 indices, in
  which a u row (i, j) holds its W, S, self, N, E u neighbours, then
  v(i-1, j), v(i-1, j+1), v(i, j), v(i, j+1); a v row (i, j) holds
  u(i, j-1), u(i, j), u(i+1, j-1), u(i+1, j), then its W, S, self, N, E
  v neighbours. A neighbour missing at a wall is an explicit zero at the
  row's own column. The real entries stay in increasing column order, so
  a matrix-vector product sums them in the order the canonical matrix
  would, and the padding adds only exact zeros: the products, the
  diagonal and the solver iterates are bitwise those of the canonical
  matrix. The prediction operator, all that its solves reuse and the
  run's grid and SchemeParams belong to one PredictionBuffers per run,
  which assemble_prediction fills and solve takes: S's entries are
  written there and scaled by mu in place when it is built, the self
  slots and their Jacobi inverse take mu S + 1/dt + chi/eta only when
  chi is another field than the one they were built for, and each step
  rewrites only the W, S, N and E slot planes as mu S + C.
* solve_correction solves the constant-coefficient correction exactly by
  a DCT-II between the two stencils D and G.
* _matvec is the one caller of csr_matvec, a compiled CSR kernel that
  _load_csr_matvec loads from its file alone, without importing the
  package that ships it: the canonical CSR product, bitwise, written into
  a checked output vector. Every product of the solvers goes through it.
* solve runs Jacobi-preconditioned BiCGStab (van der Vorst, 1992) from an
  optional initial guess x0 and stops at ||b - A x|| <= rtol ||b||, rtol
  the prediction_rtol of the buffers' params: the tolerance is relative
  to the right-hand side, not to the initial residual, so a good guess
  stops sooner at the same absolute tolerance. The prediction starts
  from the extrapolation in time of the last tentative velocities
  (scheme.predict). The operator, its Jacobi inverse and the work
  vectors come from the run's PredictionBuffers; the work vectors are
  updated in place, in the operation order of the textbook recurrences,
  so the iterates are those of the allocating form bit for bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Grid, VelocityField


def _load_csr_matvec():
    """csr_matvec of scipy's compiled _sparsetools module, loaded from its
    file by path: neither find_spec nor the load imports a scipy module.

    The kernel is private scipy API, found at scipy/sparse/_sparsetools
    with the interpreter's extension suffix. If a scipy release moves the
    file, this function is what to change.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy, which ships the compiled CSR kernel, is not installed")
    folder = os.path.join(spec.submodule_search_locations[0], "sparse")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_sparsetools" + suffix)
        if os.path.isfile(path):
            kernel = importlib.util.spec_from_file_location("_sparsetools", path)
            module = importlib.util.module_from_spec(kernel)
            kernel.loader.exec_module(module)
            return module.csr_matvec
    raise ImportError(f"no compiled CSR kernel {os.path.join(folder, '_sparsetools')}"
                      f"{{{', '.join(importlib.machinery.EXTENSION_SUFFIXES)}}}")


csr_matvec = _load_csr_matvec()


@dataclass(frozen=True, eq=False)
class Csr:
    """Compressed-sparse-row matrix: row r holds data[indptr[r]:indptr[r+1]]
    in the columns indices[indptr[r]:indptr[r+1]]. The arrays are made
    read-only, so operators can share index arrays and cached ones cannot
    be edited in place. Column indices are trusted to lie in [0, shape[1]);
    the rest of the structure is checked.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        if (self.indptr.shape != (self.shape[0] + 1,) or self.indptr[0] != 0
                or self.indices.shape != self.data.shape
                or self.indices.shape != (self.indptr[-1],)
                or self.indices.dtype != self.indptr.dtype
                or self.indptr.dtype not in (np.int32, np.int64)):
            raise ValueError(f"inconsistent CSR arrays for shape {self.shape}")
        for arr in (self.indptr, self.indices, self.data):
            arr.setflags(write=False)

    def toarray(self) -> np.ndarray:
        """The dense matrix; np.add.at sums repeated entries in storage order,
        as a dense copy of a canonical CSR matrix does."""
        dense = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        np.add.at(dense, (rows, self.indices), self.data)
        return dense


class NonConvergence(Exception):
    """Iterative solve stopped above tolerance; carries the residual reached."""

    def __init__(self, message, residual, iterations):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class FaceLayout:
    """Index bookkeeping between packed vectors and staggered arrays."""

    grid: Grid

    @property
    def nu(self) -> int:
        return (self.grid.nx - 1) * self.grid.ny

    @property
    def n(self) -> int:
        return self.nu + self.grid.nx * (self.grid.ny - 1)

    def pack(self, vel: VelocityField) -> np.ndarray:
        return np.concatenate([vel.u[1:-1, :].ravel(), vel.v[:, 1:-1].ravel()])

    def unpack(self, vec: np.ndarray) -> VelocityField:
        g = self.grid
        u = np.zeros(g.shape_u)
        v = np.zeros(g.shape_v)
        u[1:-1, :] = vec[: self.nu].reshape(g.nx - 1, g.ny)
        v[:, 1:-1] = vec[self.nu :].reshape(g.nx, g.ny - 1)
        return VelocityField(g, u, v)


@lru_cache(maxsize=32)
def face_layout(grid: Grid) -> FaceLayout:
    return FaceLayout(grid)


def apply_divergence(grid: Grid, faces: np.ndarray) -> np.ndarray:
    """D faces for packed face vectors, batched: (..., n) -> (..., ncells).

    Cell (i, j) sums, from a zero, -1/hx u-west, 1/hx u-east, -1/hy v-south
    and 1/hy v-north, skipping wall faces: the canonical CSR product, bit
    for bit, as it sums a row in increasing column order. Subtracting
    (1/h) x rounds as adding (-1/h) x does.
    """
    nx, ny = grid.nx, grid.ny
    nu = (nx - 1) * ny
    batch = faces.shape[:-1]
    out = np.zeros(batch + (nx, ny))
    flux = faces[..., :nu].reshape(batch + (nx - 1, ny)) * (1.0 / grid.hx)
    out[..., 1:, :] -= flux      # u west
    out[..., :-1, :] += flux     # u east
    flux = faces[..., nu:].reshape(batch + (nx, ny - 1)) * (1.0 / grid.hy)
    out[..., :, 1:] -= flux      # v south
    out[..., :, :-1] += flux     # v north
    return out.reshape(batch + (nx * ny,))


def apply_gradient(grid: Grid, cells: np.ndarray) -> np.ndarray:
    """G cells = -D^T cells for cell vectors, batched: (..., ncells) -> (..., n).

    A u face sums, from a zero, -1/hx west cell and 1/hx east cell, a v
    face -1/hy south and 1/hy north: the canonical CSR product, bit for bit.
    """
    nx, ny = grid.nx, grid.ny
    nu = (nx - 1) * ny
    batch = cells.shape[:-1]
    p = cells.reshape(batch + (nx, ny))
    out = np.zeros(batch + (nu + nx * (ny - 1),))
    gu = out[..., :nu].reshape(batch + (nx - 1, ny))
    gv = out[..., nu:].reshape(batch + (nx, ny - 1))
    scaled = p * (1.0 / grid.hx)
    gu -= scaled[..., :-1, :]    # west cell
    gu += scaled[..., 1:, :]     # east cell
    scaled = p * (1.0 / grid.hy)
    gv -= scaled[..., :, :-1]    # south cell
    gv += scaled[..., :, 1:]     # north cell
    return out


def _slots(grid: Grid, data: np.ndarray):
    """Views of a 9-slot array as (nx-1, ny, 9) u rows and (nx, ny-1, 9) v rows."""
    nu = (grid.nx - 1) * grid.ny
    return (data[:9 * nu].reshape(grid.nx - 1, grid.ny, 9),
            data[9 * nu:].reshape(grid.nx, grid.ny - 1, 9))


def _strain_coefficients(grid: Grid):
    """a = (1/hx)^2, b = (1/hy)^2 and c = (1/hy)(1/hx), rounded as the
    entries _write_strain writes are."""
    ax, ay = 1.0 / grid.hx, 1.0 / grid.hy
    return ax * ax, ay * ay, ay * ax


@lru_cache(maxsize=32)
def _nine_slot_pattern(grid: Grid):
    """indptr, indices and self slots of the 9-slot layout of the module
    docstring, read-only: the pattern that _write_strain fills and every
    prediction operator on grid shares. The self slots are two slices of
    data that hold each row's entry on its own column, in row order; the
    padding zeros leave it the diagonal entry of the canonical matrix
    unless it is -0.0, which no 9-slot operator holds."""
    layout = face_layout(grid)
    nx, ny, nu = grid.nx, grid.ny, layout.nu
    indices = np.empty(9 * layout.n, dtype=np.int32)
    cu, cv = _slots(grid, indices)
    ru = np.arange(nu, dtype=np.int32).reshape(nx - 1, ny)
    rv = np.arange(nu, layout.n, dtype=np.int32).reshape(nx, ny - 1)
    # every slot starts at the row's own column, the padding of a neighbour
    # beyond a wall, and the neighbours that exist are written over it
    cu[...] = ru[..., None]
    cv[...] = rv[..., None]
    # u row (i, j): W, S, N, E u, then v(i-1, j), v(i-1, j+1), v(i, j), v(i, j+1)
    cu[1:, :, 0] = ru[:-1, :]
    cu[:, 1:, 1] = ru[:, :-1]
    cu[:, :-1, 3] = ru[:, 1:]
    cu[:-1, :, 4] = ru[1:, :]
    cu[:, 1:, 5] = cu[:, :-1, 6] = rv[:-1, :]
    cu[:, 1:, 7] = cu[:, :-1, 8] = rv[1:, :]
    # v row (i, j): u(i, j-1), u(i, j), u(i+1, j-1), u(i+1, j), then W, S, N, E v
    cv[1:, :, 0] = cv[:-1, :, 2] = ru[:, :-1]
    cv[1:, :, 1] = cv[:-1, :, 3] = ru[:, 1:]
    cv[1:, :, 4] = rv[:-1, :]
    cv[:, 1:, 5] = rv[:, :-1]
    cv[:, :-1, 7] = rv[:, 1:]
    cv[:-1, :, 8] = rv[1:, :]
    indptr = np.arange(0, 9 * layout.n + 1, 9, dtype=np.int32)
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices, (slice(2, 9 * nu, 9), slice(9 * nu + 6, None, 9))


def _nine_slot_csr(grid: Grid, data: np.ndarray) -> Csr:
    """The Csr with data on grid's 9-slot pattern."""
    indptr, indices, _ = _nine_slot_pattern(grid)
    n = indptr.shape[0] - 1
    return Csr(indptr, indices, data, (n, n))


def _strain_diagonal(grid: Grid, mu: float = 1.0):
    """mu diag(S) of the S of _write_strain in closed form, as read-only
    (nx-1, ny) u-row and (nx, ny-1) v-row planes: 2 exx^2 gives a u row 4a
    and gamma^2 2b, 3b next to a wall; a v row the same with a and b
    swapped. Each entry rounds as in S, then as data *= mu scales it."""
    a, b, _ = _strain_coefficients(grid)
    gu = np.full(grid.ny, 2.0 * b)
    gu[[0, -1]] = 3.0 * b
    gv = np.full((grid.nx, 1), 2.0 * a)
    gv[[0, -1]] = 3.0 * a
    return (np.broadcast_to((4.0 * a + gu) * mu, (grid.nx - 1, grid.ny)),
            np.broadcast_to((4.0 * b + gv) * mu, (grid.nx, grid.ny - 1)))


def _write_strain(grid: Grid, data: np.ndarray):
    """Write the entries of S, the strain-energy Hessian of the module
    docstring, into a 9-slot data array."""
    # with a = (1/hx)^2, b = (1/hy)^2 and c = (1/hy)(1/hx): 2 exx^2 gives a u
    # row -2a to W and E, 2 eyy^2 a v row -2b to S and N; gamma^2 gives a u
    # row -b to S and N and +-c to the v's, and a v row the same with a; the
    # self slots are _strain_diagonal. Each entry rounds as in the product
    # 2 Bxx^T Bxx + 2 Byy^T Byy + Bgamma^T W Bgamma of the difference
    # matrices with entries +-1/h
    a, b, c = _strain_coefficients(grid)
    su, sv = _slots(grid, data)
    su[...] = [-2.0 * a, -b, 0.0, -b, -2.0 * a, -c, c, c, -c]
    sv[...] = [-c, c, c, -c, -a, -2.0 * b, 0.0, -2.0 * b, -a]
    su[..., 2], sv[..., 6] = _strain_diagonal(grid)
    # the padding slots of the rows next to a wall
    su[0, :, 0] = su[-1, :, 4] = 0.0
    su[:, 0, [1, 5, 7]] = 0.0
    su[:, -1, [3, 6, 8]] = 0.0
    sv[0, :, [0, 1, 4]] = 0.0
    sv[-1, :, [2, 3, 8]] = 0.0
    sv[:, 0, 5] = sv[:, -1, 7] = 0.0


def _write_convection(grid: Grid, vel_prev: VelocityField, mu: float, data: np.ndarray):
    """Write mu S + C(vel_prev) into the W, S, N and E slot planes of a
    9-slot data array, in place; the other slots are not touched.

    C is the skew-symmetric linearized convection of the module docstring.
    Its centered fluxes make the off-diagonal part of K skew already (the
    flux through a shared cell or node enters its two faces with opposite
    signs) and the diagonal cancels, so C is that off-diagonal part: +-k
    per face pair. Every slot of these planes that holds a neighbour takes
    exactly one such term, and its mu S entry is the interior constant
    _write_strain writes (-2a or -b in a u row, -a or -2b in a v row, times
    mu), so mu s + k rounds as the entrywise sum mu S + C. Slots padded at a
    wall keep the zero they hold.
    """
    if not (np.isfinite(vel_prev.u).all() and np.isfinite(vel_prev.v).all()):
        raise ValueError("advecting velocity contains non-finite entries")
    hx, hy = grid.hx, grid.hy
    up, vp = vel_prev.u, vel_prev.v
    a, b, _ = _strain_coefficients(grid)
    cu, cv = _slots(grid, data)
    # per coupling: the two advecting samples averaged at the shared cell or
    # node, the spacing, the slot planes taking +k and -k, and the S entry.
    # A wall node carries no flux: the centered average of w vanishes there
    for left, right, h, plus, minus, s in (
            (up[1:-2, :], up[2:-1, :], hx, cu[:-1, :, 4], cu[1:, :, 0], -2.0 * a),  # u east
            (vp[:-1, 1:-1], vp[1:, 1:-1], hy, cu[:, :-1, 3], cu[:, 1:, 1], -b),     # u north
            (vp[:, 1:-2], vp[:, 2:-1], hy, cv[:, :-1, 7], cv[:, 1:, 5], -2.0 * b),  # v north
            (up[1:-1, :-1], up[1:-1, 1:], hx, cv[:-1, :, 8], cv[1:, :, 4], -a)):    # v east
        k = np.add(left, right)
        k *= 0.5
        k /= 2 * h
        np.add(k, mu * s, out=plus)
        np.subtract(mu * s, k, out=minus)


@dataclass(frozen=True)
class WallSlip:
    """Prescribed tangential wall velocities (normal traces must stay zero).

    Used by manufactured-solution studies whose exact solution does not
    vanish on the walls; the homogeneous solver path is the g = 0 case.
    """

    u_bottom: np.ndarray    # u at (x_i, 0),  length nx+1
    u_top: np.ndarray       # u at (x_i, ly), length nx+1
    v_left: np.ndarray      # v at (0, y_j),  length ny+1
    v_right: np.ndarray     # v at (lx, y_j), length ny+1

    @classmethod
    def from_functions(cls, grid: Grid, fu, fv) -> "WallSlip":
        xi = np.arange(grid.nx + 1) * grid.hx
        yj = np.arange(grid.ny + 1) * grid.hy
        return cls(
            u_bottom=np.asarray(fu(xi, np.zeros_like(xi)), dtype=float),
            u_top=np.asarray(fu(xi, np.full_like(xi, grid.ly)), dtype=float),
            v_left=np.asarray(fv(np.zeros_like(yj), yj), dtype=float),
            v_right=np.asarray(fv(np.full_like(yj, grid.lx), yj), dtype=float),
        )


def boundary_rhs(grid: Grid, v_prev: VelocityField, mu: float,
                 slip: WallSlip) -> np.ndarray:
    """Right-hand-side contribution of inhomogeneous tangential wall data.

    Eliminating the ghost value 2 g - w_in from the viscous stencil yields
    2 mu g / h^2 on wall-adjacent rows; the skew convection contributes half
    the advective ghost correction (the divergence-form wall flux vanishes
    because the advecting normal velocity is zero on the wall).
    """
    layout = face_layout(grid)
    hx, hy = grid.hx, grid.hy
    up, vp = v_prev.u, v_prev.v
    rhs = np.zeros(layout.n)
    # the packed u and v parts as (nx-1, ny) and (nx, ny-1) views
    ru = rhs[:layout.nu].reshape(grid.nx - 1, grid.ny)
    rv = rhs[layout.nu:].reshape(grid.nx, grid.ny - 1)

    # advecting v averaged to the first / last interior u row, then halved
    vface_b = 0.5 * (0.5 * (vp[:-1, 1] + vp[1:, 1]))
    vface_t = 0.5 * (0.5 * (vp[:-1, -2] + vp[1:, -2]))
    ru[:, 0] += (2.0 * mu / hy**2) * slip.u_bottom[1:-1] \
        + 0.5 * vface_b * slip.u_bottom[1:-1] / hy
    ru[:, -1] += (2.0 * mu / hy**2) * slip.u_top[1:-1] \
        - 0.5 * vface_t * slip.u_top[1:-1] / hy

    uface_l = 0.5 * (0.5 * (up[1, :-1] + up[1, 1:]))
    uface_r = 0.5 * (0.5 * (up[-2, :-1] + up[-2, 1:]))
    rv[0, :] += (2.0 * mu / hx**2) * slip.v_left[1:-1] \
        + 0.5 * uface_l * slip.v_left[1:-1] / hx
    rv[-1, :] += (2.0 * mu / hx**2) * slip.v_right[1:-1] \
        - 0.5 * uface_r * slip.v_right[1:-1] / hx
    return rhs


_UNBUILT = object()   # the chi of buffers whose self slots were never built


class PredictionBuffers:
    """The prediction operator of one run, what its solves reuse, and the
    one copy of the grid and SchemeParams that its assembly and solves read.

    data is the 9-slot data of the operator, the one 9n array of a run: it
    holds mu S from the start, with 1/dt + chi/eta added on the self slots
    for the face mask chi, the field that they were last built for, and
    mu S + C of the latest assembly in the W, S, N and E slot planes.
    operator is the Csr on grid's cached 9-slot pattern whose data is a
    read-only view of it, minv the Jacobi inverse of its diagonal and work
    the four BiCGStab work vectors. chi is the field itself, never a packed
    copy, and _UNBUILT until the self slots are first built; mu diag(S) is
    not kept but rebuilt from _strain_diagonal.
    """

    def __init__(self, grid: Grid, params):
        n = face_layout(grid).n
        self.grid, self.params = grid, params
        self.data = np.empty(9 * n)
        _write_strain(grid, self.data)
        self.data *= params.mu
        self.operator = _nine_slot_csr(grid, self.data[:])
        self.minv = np.empty(n)
        self.work = np.empty((4, n))
        self.chi = _UNBUILT


def assemble_prediction(buffers: PredictionBuffers, v_prev: VelocityField,
                        chi: VelocityField | None = None) -> Csr:
    """Momentum operator for the implicit velocity prediction, assembled
    into buffers for their grid and params.

    (1/dt) I + C(v_prev) - div(2 mu D(.)) + (1/eta) chi I on the interior
    faces, Dirichlet rows eliminated; chi is the obstacle's face mask
    (ObstacleFrame.chi), None without one. The self slots
    mu diag(S) + 1/dt + chi/eta and their Jacobi inverse are rewritten,
    from chi packed for that alone, only when chi is not the object that
    buffers.chi says they were built for: a field is a value type, never
    edited after it is made, so the same object has the same values. A
    different object with equal values rebuilds them to the same bits.
    The convection planes are written at every call (_write_convection),
    so each entry rounds as C + mu S + diagonal. The operator is
    buffers.operator: it has the read-only 9-slot pattern of grid that
    _write_strain fills, and its data is a read-only view of
    buffers.data, so it holds the latest assembly into them.
    """
    grid, params, data = buffers.grid, buffers.params, buffers.data
    if v_prev.grid != grid:
        raise ValueError(f"advecting velocity on {v_prev.grid}, buffers built for {grid}")
    if chi is not buffers.chi:
        layout = face_layout(grid)
        d = np.concatenate([plane.ravel() for plane in _strain_diagonal(grid, params.mu)])
        d += (1.0 / params.dt if chi is None
              else 1.0 / params.dt + layout.pack(chi) / params.eta)
        u_self, v_self = _nine_slot_pattern(grid)[2]
        data[u_self], data[v_self] = np.split(d, [layout.nu])
        buffers.minv[:] = _jacobi(d)
        buffers.chi = chi
    _write_convection(grid, v_prev, params.mu, data)
    return buffers.operator


# ----------------------------------------------------------------------
# Exact correction solve (DCT-II diagonalization of the cell Laplacian)
# ----------------------------------------------------------------------

@lru_cache(maxsize=32)
def neumann_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of D D^T, the Neumann cell Laplacian, per DCT-II mode (k, l)."""
    kx = (2.0 / grid.hx * np.sin(np.pi * np.arange(grid.nx) / (2 * grid.nx))) ** 2
    ky = (2.0 / grid.hy * np.sin(np.pi * np.arange(grid.ny) / (2 * grid.ny))) ** 2
    return kx[:, None] + ky[None, :]


@lru_cache(maxsize=64)
def _twiddles(n: int):
    """The phases exp(-i pi k / 2n) of _dct and exp(i pi k / 2n) of _idct,
    k = 0..n-1; read-only."""
    pair = (np.exp(-0.5j * np.pi * np.arange(n) / n), np.exp(0.5j * np.pi * np.arange(n) / n))
    for w in pair:
        w.setflags(write=False)
    return pair


def _dct(a: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-II along the last axis, 2 sum_n a_n cos(pi k (2n+1) / 2N),
    by an rfft of the even extension."""
    n = a.shape[-1]
    spec = np.fft.rfft(np.concatenate([a, a[..., ::-1]], axis=-1))[..., :n]
    return (spec * _twiddles(n)[0]).real


def _idct(a: np.ndarray) -> np.ndarray:
    """Exact inverse of _dct along the last axis, by an irfft."""
    n = a.shape[-1]
    return np.fft.irfft(a * _twiddles(n)[1], 2 * n)[..., :n]


def solve_correction(grid: Grid, lam: float, v_tilde: np.ndarray) -> np.ndarray:
    """Exact solution of (lam I + D^T D) v_hat = -D^T D v_tilde on packed faces.

    By the push-through identity v_hat = -D^T (lam I + D D^T)^{-1} D v_tilde,
    and the DCT-II diagonalizes D D^T on the uniform grid (Schumann & Sweet,
    1976). The constant mode is set to exactly zero: D v_tilde has zero
    mean in exact arithmetic and D^T annihilates constants, so that mode
    would hold only roundoff amplified by 1/lam.
    """
    if lam <= 0:
        raise ValueError(f"lambda = eps/dt must be positive, got {lam}")
    div = apply_divergence(grid, v_tilde).reshape(grid.nx, grid.ny)
    phi = _dct(_dct(div).T).T / (lam + neumann_eigenvalues(grid))
    phi[0, 0] = 0.0
    phi = _idct(_idct(phi.T).T)
    return apply_gradient(grid, phi.ravel())


# ----------------------------------------------------------------------
# Krylov solver (Jacobi-preconditioned BiCGStab)
# ----------------------------------------------------------------------

def _jacobi(diagonal: np.ndarray) -> np.ndarray:
    """Inverse of a diagonal, with 1 in place of its zeros."""
    return 1.0 / np.where(np.abs(diagonal) > 0, diagonal, 1.0)


def _matvec(a: Csr, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The product a x for a float64 Csr a, into out (fresh if None).

    The kernel adds into its output and silently converts an array of
    another layout or type into a hidden copy, which is harmless for x but
    would hide the result of an out that is not a C-contiguous float64
    vector of the row count: such an out is rejected, a valid one zeroed.
    The kernel checks no bounds, so x is checked for length.
    """
    n_row, n_col = a.shape
    if x.shape != (n_col,):
        raise ValueError(f"vector of shape {x.shape} does not match operator {a.shape}")
    if out is None:
        out = np.zeros(n_row)
    elif out.dtype != np.float64 or out.shape != (n_row,) or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float64 vector of the row count")
    else:
        out.fill(0.0)
    csr_matvec(n_row, n_col, a.indptr, a.indices, a.data, x, out)
    return out


def solve(buffers: PredictionBuffers, rhs: np.ndarray, x0=None):
    """Solve a x = rhs by BiCGStab from x0 (zero if None) for the operator a
    last assembled into buffers; returns (x, iterations).

    The solve takes their Jacobi inverse and work vectors, and the
    prediction_rtol and max_iter of their params. Stops once
    ||rhs - a x|| <= prediction_rtol ||rhs||, whatever x0 is, and raises
    NonConvergence if the residual stays above that after max_iter
    iterations. rhs and x0 are not modified, and x is a fresh array.
    """
    a, p = buffers.operator, buffers.params
    if rhs.shape[0] != a.shape[0]:
        raise ValueError(f"rhs length {rhs.shape[0]} does not match operator {a.shape}")
    return _bicgstab(a, rhs, p.prediction_rtol, p.max_iter, x0, buffers.minv, buffers.work)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product outside BLAS: its rounding does not depend on the BLAS
    thread count, and a short vector is not split across threads."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


def _require_finite_residual(norm_r: float, iterations: int):
    if not math.isfinite(norm_r):
        raise NonConvergence("BiCGStab residual is not finite", norm_r, iterations)


def _bicgstab(a, b, rtol, max_iter, x0, minv, work):
    # Every update below is the textbook expression evaluated in place, in
    # its own operation order; t is scratch until it takes A s_hat. p = r +
    # beta (p - omega v) is t = omega v; p -= t; p *= beta; p += r, which
    # rounds the same because IEEE addition and multiplication commute. s =
    # r - alpha v is formed in r's buffer and s_hat in p_hat's, as neither is
    # read again in the iteration, and x takes alpha p_hat before s_hat
    # exists; omega s_hat and omega t are formed in their own buffers. A run
    # passes the same four-vector work block to every solve. A residual
    # norm that is not finite stops the solve at once: nan compares false
    # with the tolerance, so the loop would run on to max_iter.
    norm_b = _norm(b)
    if norm_b == 0.0:
        return np.zeros(b.shape[0]), 0
    _require_finite_residual(norm_b, 0)
    tol = rtol * norm_b
    x = np.zeros(b.shape[0]) if x0 is None else np.array(x0, dtype=np.float64)
    r = np.array(b, dtype=np.float64) if x0 is None else _matvec(a, x)
    if x0 is not None:
        np.subtract(b, r, out=r)                         # b - A x0 in A x0's vector
    if _norm(r) <= tol:
        return x, 0
    r_hat = r.copy()
    p, v, p_hat, t = work
    p.fill(0.0)
    v.fill(0.0)
    rho = alpha = omega = 1.0
    for k in range(1, max_iter + 1):
        rho_new = _dot(r_hat, r)
        if abs(rho_new) < 1e-300:
            raise NonConvergence("BiCGStab breakdown (rho ~ 0)", _norm(r), k)
        beta = (rho_new / rho) * (alpha / omega)
        np.multiply(v, omega, out=t)
        p -= t
        p *= beta
        p += r
        np.multiply(minv, p, out=p_hat)
        _matvec(a, p_hat, v)
        denom = _dot(r_hat, v)
        if abs(denom) < 1e-300:
            raise NonConvergence("BiCGStab breakdown (r_hat . v ~ 0)",
                                 _norm(r), k)
        alpha = rho_new / denom
        r -= np.multiply(v, alpha, out=t)                # s = r - alpha v
        x += np.multiply(p_hat, alpha, out=t)
        norm_r = _norm(r)
        if norm_r <= tol:
            np.subtract(b, _matvec(a, x, r), out=r)     # the true residual
            if _norm(r) <= tol:
                return x, k
        else:
            _require_finite_residual(norm_r, k)
            np.multiply(minv, r, out=p_hat)              # s_hat
            _matvec(a, p_hat, t)
            tt = _dot(t, t)
            if tt == 0.0:
                raise NonConvergence("BiCGStab breakdown (t = 0)", _norm(r), k)
            omega = _dot(t, r) / tt
            p_hat *= omega
            x += p_hat
            t *= omega
            r -= t                                       # r = s - omega t
            norm_r = _norm(r)
            if norm_r <= tol:
                np.subtract(b, _matvec(a, x, r), out=r)
                if _norm(r) <= tol:
                    return x, k
            else:
                _require_finite_residual(norm_r, k)
        rho = rho_new
    raise NonConvergence("BiCGStab did not converge",
                         _norm(np.subtract(b, _matvec(a, x, t), out=t)), max_iter)
