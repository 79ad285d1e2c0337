"""Interface temperature field: assembly from strip solutions and 1D diffusion.

The interface coordinate z in [0, 1] carries solid walls outside a porous
window (d1, d2); the window is tiled by pore footprints that take the strip
exit temperatures. The field then relaxes under the linear heat equation
with zero-flux boundaries, by the map of the explicit central scheme with a
mirror-ghost Neumann closure. That map is diagonal in the type-I discrete
cosine basis (DCT-I), so every diffusion, ``diffuse_field`` included, is
one DCT-I (an ``rfft`` of the even extension), a per-mode growth factor and
a second DCT-I. As in the march, a node that no jump of its row reaches
within the steps keeps its value exactly, and so does a constant field.

Diffusion is linear and does not depend on the strip values, so for one
(geometry, diffusivity, time, grid, cfl) the wall field and one unit field
per strip footprint are diffused once and cached. An ``InterfaceSurrogate``
(models with random heat flux) holds each strip's exit temperature
c0 + c1 xi, exact in the flux germ, next to those cached responses and
never forms per-mode fields: a realization is ``wall + (c0 + c1 * xi) @
unit``, where a shared germ's one variable drives every strip; for
independent germs the thin SVD of the unit responses is cached with them,
on first use.
"""
from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .gpc import GermSpec

__all__ = [
    "InterfaceGeometry",
    "InterfaceField",
    "InterfaceSurrogate",
    "assemble_initial_field",
    "diffuse_field",
    "assemble_interface_from_coeffs",
    "evaluate_interface_batch",
]

DEFAULT_CFL = 0.4
DEFAULT_N_Z = 600


@dataclass(frozen=True)
class InterfaceGeometry:
    """Porous window layout, wall temperature and diffusion constants."""

    d1: float = 0.25
    d2: float = 0.75
    n_strips: int = 60
    section_porosities: tuple[tuple[float, float, float], ...] = (
        (0.25, 0.5, 0.111),
        (0.5, 0.75, 0.4),
    )
    wall_temp: float = 400.0
    diffusivity: float = 1e-3
    t_constraint: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.d1 < self.d2 <= 1.0:
            raise ValueError("need 0 <= d1 < d2 <= 1")
        if self.n_strips < 1:
            raise ValueError("n_strips must be >= 1")
        for name in ("wall_temp", "diffusivity", "t_constraint"):
            if not getattr(self, name) > 0.0:  # also rejects NaN
                raise ValueError(f"{name} must be positive")
        for lo, hi, phi in self.section_porosities:
            if not (self.d1 - 1e-12 <= lo < hi <= self.d2 + 1e-12):
                raise ValueError("porosity sections must lie inside (d1, d2)")
            if not 0.0 < phi < 1.0:
                raise ValueError("section porosity must lie in (0, 1)")

    @property
    def delta_z(self) -> float:
        """Half-width of a strip footprint: the strips tile (d1, d2)."""
        return (self.d2 - self.d1) / (2 * self.n_strips)

    @property
    def strip_centers(self) -> np.ndarray:
        return self.d1 + self.delta_z * (2 * np.arange(self.n_strips) + 1)

    def strip_porosities(self) -> np.ndarray:
        """Porosity per strip, looked up by which section contains its center."""
        centers = self.strip_centers
        out = np.empty(self.n_strips)
        for s, center in enumerate(centers):
            for lo, hi, phi in self.section_porosities:
                if lo <= center < hi or (center == hi == self.d2):
                    out[s] = phi
                    break
            else:
                raise ValueError(f"strip center {center} not covered by any porosity section")
        return out


@dataclass(frozen=True)
class InterfaceField:
    """One realization (or one chaos coefficient) of the interface temperature."""

    z_grid: np.ndarray
    values: np.ndarray
    time: float

    def __post_init__(self) -> None:
        if self.values.shape != self.z_grid.shape:
            raise ValueError("values and z_grid must have the same shape")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")
        dz = np.diff(self.z_grid)
        if np.any(dz <= 0.0) or not np.allclose(dz, dz[0], rtol=1e-9):
            raise ValueError("z_grid must be uniform and strictly increasing")

    def to_csv(self, path: str) -> None:
        write_csv(path, ("z", "temperature"), (self.z_grid, self.values))


def _footprint_index(geometry: InterfaceGeometry, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strip index per node and the mask of nodes covered by any footprint.

    Membership is decided by index arithmetic on the tiling, so a node on a
    shared footprint edge belongs to exactly one strip.
    """
    idx = np.floor((z - geometry.d1) / (2.0 * geometry.delta_z)).astype(int)
    idx = np.clip(idx, 0, geometry.n_strips - 1)
    covered = np.abs(z - geometry.strip_centers[idx]) <= geometry.delta_z * (1.0 + 1e-12)
    covered &= (z >= geometry.d1) & (z <= geometry.d2)
    return idx, covered


def assemble_initial_field(
    geometry: InterfaceGeometry, strip_values: np.ndarray, n_z: int = DEFAULT_N_Z
) -> InterfaceField:
    """Piecewise-constant initial field: walls at T0, footprints at strip values."""
    strip_values = np.asarray(strip_values, dtype=float)
    if strip_values.shape != (geometry.n_strips,):
        raise ValueError(f"need exactly {geometry.n_strips} strip values")
    if n_z < 2:
        raise ValueError("n_z must be >= 2")
    z = np.linspace(0.0, 1.0, n_z)
    idx, covered = _footprint_index(geometry, z)
    per_strip = np.bincount(idx[covered], minlength=geometry.n_strips)
    if np.any(per_strip == 0):
        raise ValueError(
            f"grid with n_z={n_z} leaves some pore footprint without a node; refine the grid"
        )
    values = np.full(n_z, geometry.wall_temp)
    values[covered] = strip_values[idx[covered]]
    return InterfaceField(z_grid=z, values=values, time=0.0)


def _dct1(rows: np.ndarray) -> np.ndarray:
    """Type-I discrete cosine transform of each row, by rfft of its even extension."""
    return np.fft.rfft(np.concatenate([rows, rows[:, -2:0:-1]], axis=1), axis=1).real


def _spectral_propagate(rows: np.ndarray, r: float, n_full: int, r_rem: float) -> np.ndarray:
    """Apply the explicit marching map through the operator's eigenbasis.

    ``rows`` has shape (n_fields, n_z). The mirror-ghost update matrix has
    eigenvectors cos(k*pi*i/(n-1)) with per-step factors 1 + r*mu_k,
    mu_k = -2(1 - cos(k*pi/(n-1))): n_full steps of ratio r and one of
    ratio r_rem scale mode k by ``growth[k]``. The basis is the DCT-I, its
    own inverse up to 2(n-1), so the map is two real FFTs, exact to roundoff.
    """
    n = rows.shape[1]
    mu = -2.0 * (1.0 - np.cos(np.pi * np.arange(n) / (n - 1)))
    growth = (1.0 + r * mu) ** n_full * (1.0 + r_rem * mu)
    return _dct1(growth * _dct1(rows)) / (2 * (n - 1))


def _diffuse(
    rows: np.ndarray, z_grid: np.ndarray, lam: float, elapsed: float, cfl: float
) -> np.ndarray:
    """New array of ``rows`` diffused for ``elapsed`` time on ``z_grid``.

    Both public entry points share its guards. As in the march, a node
    farther than n_full + 1 nodes from every jump of its row keeps its value.
    """
    if not 0.0 < cfl <= 0.5:
        raise ValueError("cfl must lie in (0, 0.5] for stability")
    if not lam > 0.0:  # also rejects NaN
        raise ValueError("lam must be positive")
    if not 0.0 <= elapsed < np.inf:
        raise ValueError("t_end must be finite and must not precede the field time")
    if elapsed == 0.0:
        return rows.copy()
    n_full, r_rem = _march_plan(z_grid, lam, elapsed, cfl)
    jumps = np.pad(np.cumsum(np.diff(rows, axis=1) != 0.0, axis=1), ((0, 0), (1, 0)))
    i = np.arange(rows.shape[1])
    near = jumps[:, np.minimum(i + n_full + 1, i[-1])] > jumps[:, np.maximum(i - n_full - 1, 0)]
    return np.where(near, _spectral_propagate(rows, cfl, n_full, r_rem), rows)


def _march_plan(z_grid: np.ndarray, lam: float, elapsed: float, cfl: float):
    dz = z_grid[1] - z_grid[0]
    dt = cfl * dz * dz / lam
    n_full = int(elapsed // dt)
    return n_full, lam * (elapsed - n_full * dt) / (dz * dz)


def diffuse_field(
    field: InterfaceField, lam: float, t_end: float, cfl: float = DEFAULT_CFL
) -> InterfaceField:
    """Evolve a field to t_end under the heat equation with zero-flux ends:
    the explicit march with ratio ``cfl``, applied as a DCT-I by ``_diffuse``."""
    values = _diffuse(field.values[None, :], field.z_grid, lam, t_end - field.time, cfl)[0]
    return InterfaceField(z_grid=field.z_grid.copy(), values=values, time=t_end)


@functools.lru_cache(maxsize=32)
def _footprint_response(
    geometry: InterfaceGeometry, lam: float, t_end: float, n_z: int, cfl: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid, diffused wall field and diffused unit footprint fields at t_end.

    Returns read-only ``(z, wall, unit)``: ``wall`` has shape (n_z,) and
    starts at the wall temperature off the footprints and 0 on them; row s
    of ``unit``, shape (n_strips, n_z), starts as the indicator of strip s's
    footprint. The initial rows sum to the assembled initial field for any
    strip values, so diffusion, being linear, carries that sum to t_end.
    """
    initial = assemble_initial_field(geometry, np.zeros(geometry.n_strips), n_z)
    z = initial.z_grid
    rows = np.zeros((1 + geometry.n_strips, n_z))
    rows[0] = initial.values
    idx, covered = _footprint_index(geometry, z)
    rows[1 + idx[covered], np.flatnonzero(covered)] = 1.0
    rows = _diffuse(rows, z, lam, t_end, cfl)
    for array in (z, rows):
        array.flags.writeable = False
    return z, rows[0], rows[1:]


@functools.lru_cache(maxsize=32)
def _footprint_svd(*key) -> tuple[np.ndarray, np.ndarray]:
    """The unit responses of ``_footprint_response(*key)`` as read-only
    ``(U * S, V^T)``, from their thin SVD."""
    left, sv, right = np.linalg.svd(_footprint_response(*key)[2], full_matrices=False)
    left *= sv
    left.flags.writeable = right.flags.writeable = False
    return left, right


@dataclass(frozen=True)
class InterfaceSurrogate:
    """Interface temperature at one time, affine in the germ.

    ``coeffs`` (n_strips, 2) holds each strip's exit temperature c0 + c1 xi;
    ``wall`` (n_z,) and ``unit`` (n_strips, n_z) are the read-only diffused
    footprint responses. The germ has one variable per strip, or one variable
    that every strip shares (``shared``); with one strip the two readings
    agree. ``unit_svd`` returns ``unit`` as ``(U * S, V^T)``, from its thin
    SVD; ``assemble_interface_from_coeffs`` binds it to a per-response cache.
    """

    germ: GermSpec
    z_grid: np.ndarray
    time: float
    coeffs: np.ndarray
    wall: np.ndarray
    unit: np.ndarray
    unit_svd: Callable[[], tuple[np.ndarray, np.ndarray]]

    def __post_init__(self) -> None:
        if self.coeffs.shape != (self.unit.shape[0], 2) or self.unit.shape[1:] != self.z_grid.shape:
            raise ValueError("coeffs must have shape (n_strips, 2) and unit (n_strips, n_z)")
        if self.wall.shape != self.z_grid.shape:
            raise ValueError("wall must match the grid")
        if self.germ.dim not in (1, self.coeffs.shape[0]):
            raise ValueError("germ must have one variable, or one per strip")

    @property
    def shared(self) -> bool:
        return self.germ.dim == 1

    @property
    def germ_axes(self) -> tuple[int, ...]:
        """Shape of one germ draw as ``evaluate_interface_batch`` takes it."""
        return () if self.shared else (self.germ.dim,)

    @property
    def base_field(self) -> np.ndarray:
        """The field at the germ mean (walls included)."""
        return self.wall + self.coeffs[:, 0] @ self.unit


def assemble_interface_from_coeffs(
    geometry: InterfaceGeometry,
    coeffs: np.ndarray,
    germ: GermSpec,
    lam: float,
    t_end: float,
    n_z: int = DEFAULT_N_Z,
    cfl: float = DEFAULT_CFL,
) -> InterfaceSurrogate:
    """Interface surrogate at t_end from per-strip exit temperatures.

    ``coeffs`` has shape (n_strips, 2): each strip's fluid exit temperature
    c0 + c1 xi in its flux germ. The germ has one variable shared by all
    strips or one per strip.
    """
    key = (geometry, lam, t_end, n_z, cfl)
    z, wall, unit = _footprint_response(*key)
    coeffs = np.asarray(coeffs, dtype=float)
    svd = functools.partial(_footprint_svd, *key)
    return InterfaceSurrogate(germ, z, t_end, coeffs, wall, unit, svd)


def evaluate_interface_batch(isurr: InterfaceSurrogate, xi: np.ndarray) -> np.ndarray:
    """Realized fields for standardized germ draws; shape (n_draws, n_z).

    ``xi`` has shape (n,) for a shared germ and (n, n_strips) for
    independent germs.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0 or xi.shape[1:] != isurr.germ_axes:
        raise ValueError(f"expected xi of shape {('n',) + isurr.germ_axes}")
    # (n, 1 or n_strips): a shared variable broadcasts across the strips
    strips = isurr.coeffs[:, 0] + isurr.coeffs[:, 1] * xi.reshape(xi.shape[0], -1)
    fields = strips @ isurr.unit
    fields += isurr.wall
    return fields
