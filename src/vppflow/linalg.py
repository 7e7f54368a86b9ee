"""Sparse operator assembly, the Krylov solver and the exact transform solves.

Unknown ordering packs interior u faces first (i = 1..nx-1, all j, row
major) and interior v faces after (all i, j = 1..ny-1). Boundary faces
carry prescribed values (zero for both the Dirichlet prediction and the
normal-zero correction) and are eliminated from every system, so the
reduced space has the uniform face weight hx*hy and plain vector dot
products realize the discrete L2 pairing up to that constant factor.

Operator structure:

* divergence_matrix D maps packed faces to cells; the discrete gradient
  satisfies G = -D^T exactly, which makes grad and div adjoint.
* the viscous block is mu times strain_energy_matrix, built variationally
  from the discrete strain energy 2(exx^2 + eyy^2) + gamma^2, so
  -div(2 mu D(.)) is symmetric positive semi-definite by construction and
  reproduces the operators.strain_divergence stencil row by row.
* convection_matrix antisymmetrizes the staggered divergence-form flux
  matrix, C = (K - K^T)/2. This is a second-order discretization of the
  advective form plus half the advecting field's divergence, and it makes
  the convective quadratic form vanish exactly, not just to O(h^2).
* the prediction operator has a pattern fixed by the grid: every
  convective coupling and the diagonal lie in the pattern of S, so
  convection_matrix and assemble_prediction write one data array per step
  on S's read-only index arrays, through slots cached per grid.
* solve_correction solves the constant-coefficient correction exactly by
  a DCT-II; assemble_correction keeps its matrix as the reference operator.
* dirichlet_bases diagonalizes the Dirichlet -Laplace on the cell and face
  lattices by sine transforms, for the closed-form H^-1 diagnostics.
* solve runs Jacobi-preconditioned BiCGStab from an optional
  initial guess x0 and stops at ||b - A x|| <= rtol ||b||: the tolerance is
  relative to the right-hand side, not to the initial residual, so a good
  guess stops sooner at the same absolute tolerance. The prediction starts
  from the previous step's tentative velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .grid import Grid, VelocityField


class NonConvergence(Exception):
    """Iterative solve stopped above tolerance; carries the residual reached."""

    def __init__(self, message, residual, iterations):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class SolverConfig:
    rtol: float = 1e-10
    max_iter: int = 10000

    def __post_init__(self):
        if not 0.0 < self.rtol < 1.0:
            raise ValueError(f"rtol must be in (0, 1), got {self.rtol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class FaceLayout:
    """Index bookkeeping between packed vectors and staggered arrays."""

    grid: Grid

    @property
    def nu(self) -> int:
        return (self.grid.nx - 1) * self.grid.ny

    @property
    def nv(self) -> int:
        return self.grid.nx * (self.grid.ny - 1)

    @property
    def n(self) -> int:
        return self.nu + self.nv

    def pack(self, vel: VelocityField) -> np.ndarray:
        return np.concatenate([vel.u[1:-1, :].ravel(), vel.v[:, 1:-1].ravel()])

    def unpack(self, vec: np.ndarray) -> VelocityField:
        g = self.grid
        u = np.zeros(g.shape_u)
        v = np.zeros(g.shape_v)
        u[1:-1, :] = vec[: self.nu].reshape(g.nx - 1, g.ny)
        v[:, 1:-1] = vec[self.nu :].reshape(g.nx, g.ny - 1)
        return VelocityField(g, u, v)

    def u_index(self, i, j):
        """Packed index of interior u face (i = 1..nx-1)."""
        return (i - 1) * self.grid.ny + j

    def v_index(self, i, j):
        """Packed index of interior v face (j = 1..ny-1)."""
        return self.nu + i * (self.grid.ny - 1) + (j - 1)


@lru_cache(maxsize=32)
def face_layout(grid: Grid) -> FaceLayout:
    return FaceLayout(grid)


def _u_index_grid(layout: FaceLayout):
    g = layout.grid
    idx = -np.ones((g.nx + 1, g.ny), dtype=np.int64)
    ii, jj = np.meshgrid(np.arange(1, g.nx), np.arange(g.ny), indexing="ij")
    idx[1:-1, :] = layout.u_index(ii, jj)
    return idx


def _v_index_grid(layout: FaceLayout):
    g = layout.grid
    idx = -np.ones((g.nx, g.ny + 1), dtype=np.int64)
    ii, jj = np.meshgrid(np.arange(g.nx), np.arange(1, g.ny), indexing="ij")
    idx[:, 1:-1] = layout.v_index(ii, jj)
    return idx


@lru_cache(maxsize=32)
def divergence_matrix(grid: Grid) -> sp.csr_matrix:
    """Cells x faces divergence over the packed interior unknowns."""
    layout = face_layout(grid)
    nx, ny = grid.nx, grid.ny
    uidx = _u_index_grid(layout)
    vidx = _v_index_grid(layout)
    cell = np.arange(grid.ncells).reshape(nx, ny)

    rows, cols, vals = [], [], []

    def add(r, c, v):
        keep = c >= 0
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(v[keep] if isinstance(v, np.ndarray) else np.full(keep.sum(), v))

    add(cell.ravel(), uidx[1:, :].ravel(), np.full(grid.ncells, 1.0 / grid.hx))
    add(cell.ravel(), uidx[:-1, :].ravel(), np.full(grid.ncells, -1.0 / grid.hx))
    add(cell.ravel(), vidx[:, 1:].ravel(), np.full(grid.ncells, 1.0 / grid.hy))
    add(cell.ravel(), vidx[:, :-1].ravel(), np.full(grid.ncells, -1.0 / grid.hy))

    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.ncells, layout.n),
    )
    return mat.tocsr()


@lru_cache(maxsize=32)
def gradient_matrix(grid: Grid) -> sp.csr_matrix:
    """Faces x cells gradient; exactly -divergence_matrix^T."""
    return (-divergence_matrix(grid).T).tocsr()


@lru_cache(maxsize=32)
def strain_energy_matrix(grid: Grid) -> sp.csr_matrix:
    """Positive semi-definite matrix S with x^T S x = 2|exx|^2 + 2|eyy|^2 + |gamma|^2.

    The viscous operator -div(2 mu D(.)) on the packed unknowns is mu * S.
    """
    layout = face_layout(grid)
    nx, ny = grid.nx, grid.ny
    hx, hy = grid.hx, grid.hy
    uidx = _u_index_grid(layout)
    vidx = _v_index_grid(layout)

    def build(rows, cols, vals, shape):
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        v = np.concatenate(vals)
        keep = c >= 0
        return sp.coo_matrix((v[keep], (r[keep], c[keep])), shape=shape).tocsr()

    ncell = grid.ncells
    cell = np.arange(ncell)

    # exx = du/dx at cells
    bxx = build(
        [cell, cell],
        [uidx[1:, :].ravel(), uidx[:-1, :].ravel()],
        [np.full(ncell, 1.0 / hx), np.full(ncell, -1.0 / hx)],
        (ncell, layout.n),
    )
    # eyy = dv/dy at cells
    byy = build(
        [cell, cell],
        [vidx[:, 1:].ravel(), vidx[:, :-1].ravel()],
        [np.full(ncell, 1.0 / hy), np.full(ncell, -1.0 / hy)],
        (ncell, layout.n),
    )

    # gamma = du/dy + dv/dx at nodes, ghost reflection doubles the wall term
    nnode = (nx + 1) * (ny + 1)
    node = np.arange(nnode).reshape(nx + 1, ny + 1)
    rows, cols, vals = [], [], []

    ii, jj = np.meshgrid(np.arange(nx + 1), np.arange(1, ny), indexing="ij")
    rows += [node[:, 1:-1].ravel()] * 2
    cols += [uidx[ii, jj].ravel(), uidx[ii, jj - 1].ravel()]
    vals += [np.full(ii.size, 1.0 / hy), np.full(ii.size, -1.0 / hy)]

    i0 = np.arange(nx + 1)
    rows += [node[:, 0], node[:, ny]]
    cols += [uidx[i0, 0], uidx[i0, ny - 1]]
    vals += [np.full(nx + 1, 2.0 / hy), np.full(nx + 1, -2.0 / hy)]

    ii, jj = np.meshgrid(np.arange(1, nx), np.arange(ny + 1), indexing="ij")
    rows += [node[1:-1, :].ravel()] * 2
    cols += [vidx[ii, jj].ravel(), vidx[ii - 1, jj].ravel()]
    vals += [np.full(ii.size, 1.0 / hx), np.full(ii.size, -1.0 / hx)]

    j0 = np.arange(ny + 1)
    rows += [node[0, :], node[nx, :]]
    cols += [vidx[0, j0], vidx[nx - 1, j0]]
    vals += [np.full(ny + 1, 2.0 / hx), np.full(ny + 1, -2.0 / hx)]

    bgam = build(rows, cols, vals, (nnode, layout.n))

    # trapezoidal node quadrature: wall nodes count half, corners a quarter;
    # with the doubled ghost coefficients this reproduces the reflection
    # stencil of operators.strain_divergence exactly
    wnode = np.ones((nx + 1, ny + 1))
    wnode[0, :] *= 0.5
    wnode[-1, :] *= 0.5
    wnode[:, 0] *= 0.5
    wnode[:, -1] *= 0.5
    wdiag = sp.diags(wnode.ravel())

    s = 2.0 * (bxx.T @ bxx) + 2.0 * (byy.T @ byy) + bgam.T @ wdiag @ bgam
    s = s.tocsr()
    # the prediction operators share these index arrays (assemble_prediction)
    s.indices.setflags(write=False)
    s.indptr.setflags(write=False)
    return s


@lru_cache(maxsize=32)
def _prediction_slots(grid: Grid):
    """Slots in strain_energy_matrix(grid).data of the convective couplings.

    Returns (fwd, bwd, diag): the slot of each off-diagonal flux entry
    (r, c) in the order convection_matrix lists its values, the slot of
    its transpose (c, r), and the slots of the diagonal. Every coupling
    of the prediction operator already lies in the pattern of S.
    """
    s = strain_energy_matrix(grid)
    lookup = sp.csr_matrix((np.arange(s.nnz), s.indices, s.indptr), shape=s.shape)
    layout = face_layout(grid)
    uidx = _u_index_grid(layout)
    vidx = _v_index_grid(layout)
    # (row, col) of the u east, u north, v north and v east neighbours
    rows = np.concatenate([uidx[1:-2, :].ravel(), uidx[1:-1, :-1].ravel(),
                           vidx[:, 1:-2].ravel(), vidx[:-1, 1:-1].ravel()])
    cols = np.concatenate([uidx[2:-1, :].ravel(), uidx[1:-1, 1:].ravel(),
                           vidx[:, 2:-1].ravel(), vidx[1:, 1:-1].ravel()])
    diag = np.arange(s.shape[0])
    slots = [np.asarray(lookup[r, c]).ravel().astype(s.indices.dtype)
             for r, c in ((rows, cols), (cols, rows), (diag, diag))]
    for a in slots:
        a.setflags(write=False)
    return tuple(slots)


def convection_matrix(grid: Grid, vel_prev: VelocityField) -> sp.csr_matrix:
    """Skew-symmetric linearized convection built from the previous velocity.

    K is the staggered divergence-form flux matrix with centered
    interpolation; its antisymmetrization (K - K^T)/2 equals the advective
    form plus half the advecting divergence to second order and gives
    x^T C x = 0 in exact arithmetic. The centered fluxes make the
    off-diagonal part of K skew already (the flux through a shared cell or
    node enters its two faces with opposite signs) and the diagonal cancels,
    so C is that off-diagonal part, written on the pattern of
    strain_energy_matrix(grid) with explicit zeros elsewhere.
    """
    if not (np.all(np.isfinite(vel_prev.u)) and np.all(np.isfinite(vel_prev.v))):
        raise ValueError("advecting velocity contains non-finite entries")
    hx, hy = grid.hx, grid.hy
    up, vp = vel_prev.u, vel_prev.v
    uc = 0.5 * (up[:-1, :] + up[1:, :])     # advecting u at cells
    vc = 0.5 * (vp[:, :-1] + vp[:, 1:])     # advecting v at cells
    vn = 0.5 * (vp[:-1, :] + vp[1:, :])     # advecting v at nodes, i = 1..nx-1
    un = 0.5 * (up[:, :-1] + up[:, 1:])     # advecting u at nodes, j = 1..ny-1
    # wall nodes contribute no flux: the centered average of w vanishes there
    k = np.concatenate([(uc[1:-1, :] / (2 * hx)).ravel(), (vn[:, 1:-1] / (2 * hy)).ravel(),
                        (vc[:, 1:-1] / (2 * hy)).ravel(), (un[1:-1, :] / (2 * hx)).ravel()])
    fwd, bwd, _ = _prediction_slots(grid)
    s = strain_energy_matrix(grid)
    c = np.zeros(s.nnz)
    c[fwd] = k
    c[bwd] = -k
    return sp.csr_matrix((c, s.indices, s.indptr), shape=s.shape)


def penalization_diagonal(chi_u: np.ndarray, chi_v: np.ndarray) -> np.ndarray:
    """Pack face-sampled obstacle masks into a diagonal over the unknowns."""
    return np.concatenate([chi_u[1:-1, :].ravel(), chi_v[:, 1:-1].ravel()])


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
    nx, ny = grid.nx, grid.ny
    hx, hy = grid.hx, grid.hy
    up, vp = v_prev.u, v_prev.v
    rhs = np.zeros(layout.n)

    iu = np.arange(1, nx)
    # advecting v averaged to the first interior u row / last interior u row
    v_node1 = 0.5 * (vp[iu - 1, 1] + vp[iu, 1])
    v_node_top = 0.5 * (vp[iu - 1, ny - 1] + vp[iu, ny - 1])
    vface_b = 0.5 * v_node1
    vface_t = 0.5 * v_node_top
    rhs[layout.u_index(iu, 0)] += (2.0 * mu / hy**2) * slip.u_bottom[iu] \
        + 0.5 * vface_b * slip.u_bottom[iu] / hy
    rhs[layout.u_index(iu, ny - 1)] += (2.0 * mu / hy**2) * slip.u_top[iu] \
        - 0.5 * vface_t * slip.u_top[iu] / hy

    jv = np.arange(1, ny)
    u_node1 = 0.5 * (up[1, jv - 1] + up[1, jv])
    u_node_right = 0.5 * (up[nx - 1, jv - 1] + up[nx - 1, jv])
    uface_l = 0.5 * u_node1
    uface_r = 0.5 * u_node_right
    rhs[layout.v_index(0, jv)] += (2.0 * mu / hx**2) * slip.v_left[jv] \
        + 0.5 * uface_l * slip.v_left[jv] / hx
    rhs[layout.v_index(nx - 1, jv)] += (2.0 * mu / hx**2) * slip.v_right[jv] \
        - 0.5 * uface_r * slip.v_right[jv] / hx
    return rhs


def assemble_prediction(grid, params, v_prev: VelocityField, chi=None) -> sp.csr_matrix:
    """Momentum operator for the implicit velocity prediction.

    (1/dt) I + C(v_prev) - div(2 mu D(.)) + (1/eta) chi I on the interior
    faces, Dirichlet rows eliminated; chi is the packed face mask of the
    obstacle (penalization_diagonal), None without one. The operator
    shares the index arrays of strain_energy_matrix(grid), which are
    read-only: only its data array is new.
    """
    c = convection_matrix(grid, v_prev)
    data = c.data + params.mu * strain_energy_matrix(grid).data
    data[_prediction_slots(grid)[2]] += (
        1.0 / params.dt if chi is None else 1.0 / params.dt + chi / params.eta)
    return sp.csr_matrix((data, c.indices, c.indptr), shape=c.shape)


def assemble_correction(grid, params) -> sp.csr_matrix:
    """SPD operator (eps/dt) I - grad(div(.)) of the velocity correction."""
    if params.epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {params.epsilon}")
    d = divergence_matrix(grid)
    a = (sp.diags(np.full(d.shape[1], params.epsilon / params.dt)) + d.T @ d).tocsr()
    a.eliminate_zeros()
    return a


# ----------------------------------------------------------------------
# Exact correction solve (DCT-II diagonalization of the cell Laplacian)
# ----------------------------------------------------------------------

@lru_cache(maxsize=32)
def neumann_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of D D^T, the Neumann cell Laplacian, per DCT-II mode (k, l)."""
    kx = (2.0 / grid.hx * np.sin(np.pi * np.arange(grid.nx) / (2 * grid.nx))) ** 2
    ky = (2.0 / grid.hy * np.sin(np.pi * np.arange(grid.ny) / (2 * grid.ny))) ** 2
    return kx[:, None] + ky[None, :]


def _dct(a: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-II along the last axis, 2 sum_n a_n cos(pi k (2n+1) / 2N),
    by an rfft of the even extension."""
    n = a.shape[-1]
    spec = np.fft.rfft(np.concatenate([a, a[..., ::-1]], axis=-1))[..., :n]
    return (spec * np.exp(-0.5j * np.pi * np.arange(n) / n)).real


def _idct(a: np.ndarray) -> np.ndarray:
    """Exact inverse of _dct along the last axis, by an irfft."""
    n = a.shape[-1]
    return np.fft.irfft(a * np.exp(0.5j * np.pi * np.arange(n) / n), 2 * n)[..., :n]


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
    div = (divergence_matrix(grid) @ v_tilde).reshape(grid.nx, grid.ny)
    phi = _dct(_dct(div).T).T / (lam + neumann_eigenvalues(grid))
    phi[0, 0] = 0.0
    phi = _idct(_idct(phi.T).T)
    return gradient_matrix(grid) @ phi.ravel()


# ----------------------------------------------------------------------
# Dirichlet -Laplace on the cell and face lattices (sine transforms)
# ----------------------------------------------------------------------

@lru_cache(maxsize=64)
def dirichlet_basis(m: int, h: float, offset: bool):
    """Orthonormal eigenvectors (columns) and eigenvalues of the 1D Dirichlet
    -d2/dx2 on m samples of spacing h: at (j + 1/2) h if offset (cell
    centres; DST-II, n = m), else at (j + 1) h (faces; DST-I, n = m + 1).
    Mode k = 1..m has eigenvalue (2/h sin(pi k / 2n))^2, increasing in k.
    """
    n = m if offset else m + 1
    k = np.arange(1, m + 1)
    q = np.sin(np.pi / n * np.outer(np.arange(m) + (0.5 if offset else 1.0), k))
    q /= np.linalg.norm(q, axis=0)
    lam = (2.0 / h * np.sin(np.pi * k / (2 * n))) ** 2
    q.setflags(write=False)
    lam.setflags(write=False)
    return q, lam


def dirichlet_bases(grid: Grid, which: str):
    """((qx, lam_x), (qy, lam_y)), the per-axis dirichlet_basis of the "cell"
    (nx x ny), "u" (interior u faces, (nx-1) x ny) or "v" (nx x (ny-1)) lattice."""
    x_off, y_off = {"cell": (True, True), "u": (False, True), "v": (True, False)}[which]
    return (dirichlet_basis(grid.nx if x_off else grid.nx - 1, grid.hx, x_off),
            dirichlet_basis(grid.ny if y_off else grid.ny - 1, grid.hy, y_off))


# ----------------------------------------------------------------------
# Krylov solver (Jacobi-preconditioned BiCGStab)
# ----------------------------------------------------------------------

def _jacobi(matrix: sp.csr_matrix) -> np.ndarray:
    d = matrix.diagonal()
    d = np.where(np.abs(d) > 0, d, 1.0)
    return 1.0 / d


def solve(a: sp.csr_matrix, rhs: np.ndarray, cfg: SolverConfig, x0=None):
    """Solve a x = rhs by BiCGStab from x0 (zero if None); returns (x, iterations).

    Stops once ||rhs - a x|| <= cfg.rtol ||rhs||, whatever x0 is, and
    raises NonConvergence if the residual stays above that after
    cfg.max_iter iterations.
    """
    if rhs.shape[0] != a.shape[0]:
        raise ValueError(f"rhs length {rhs.shape[0]} does not match operator {a.shape}")
    return _bicgstab(a, rhs, cfg, x0)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product outside BLAS: its rounding does not depend on the BLAS
    thread count, and a short vector is not split across threads."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


def _bicgstab(a, b, cfg, x0=None):
    norm_b = _norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), 0
    tol = cfg.rtol * norm_b
    minv = _jacobi(a)
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b - a @ x if x0 is not None else b.copy()
    if _norm(r) <= tol:
        return x, 0
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    for k in range(1, cfg.max_iter + 1):
        rho_new = _dot(r_hat, r)
        if abs(rho_new) < 1e-300:
            raise NonConvergence("BiCGStab breakdown (rho ~ 0)", _norm(r), k)
        beta = (rho_new / rho) * (alpha / omega)
        p = r + beta * (p - omega * v)
        p_hat = minv * p
        v = a @ p_hat
        denom = _dot(r_hat, v)
        if abs(denom) < 1e-300:
            raise NonConvergence("BiCGStab breakdown (r_hat . v ~ 0)",
                                 _norm(r), k)
        alpha = rho_new / denom
        s = r - alpha * v
        if _norm(s) <= tol:
            x = x + alpha * p_hat
            r_true = b - a @ x
            if _norm(r_true) <= tol:
                return x, k
            r = r_true
        else:
            s_hat = minv * s
            t = a @ s_hat
            tt = _dot(t, t)
            if tt == 0.0:
                raise NonConvergence("BiCGStab breakdown (t = 0)", _norm(s), k)
            omega = _dot(t, s) / tt
            x = x + alpha * p_hat + omega * s_hat
            r = s - omega * t
            if _norm(r) <= tol:
                r_true = b - a @ x
                if _norm(r_true) <= tol:
                    return x, k
                r = r_true
        rho = rho_new
    raise NonConvergence("BiCGStab did not converge",
                         _norm(b - a @ x), cfg.max_iter)
