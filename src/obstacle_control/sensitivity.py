"""Directional differentiability of the control-to-state map.

The obstacle solution map q -> u(q) is not Gateaux differentiable across
the contact set, but it is directionally differentiable: the derivative in
a control direction d solves a variational inequality over the critical
cone of the solution, with load -(d grad u, grad phi). The cone pins the
derivative to zero where the multiplier is strictly positive and keeps it
nonpositive on the remaining (biactive) contact nodes; off the contact set
the derivative behaves like the solution of a linearized PDE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import MatrixControlField
from .errors import DimensionError
from .fem import ScalarField, assemble_stiffness
from .obstacle import VISolution, pdas_bound_solve


@dataclass(frozen=True)
class CriticalCone:
    """Node partition defining the admissible derivative directions.

    zero_nodes carry a strictly positive multiplier and pin the derivative
    to zero; nonpositive_nodes are contact nodes with vanishing multiplier
    (biactive) where only the sign is constrained; free_nodes are the
    remaining interior nodes. The three sets partition the interior.
    """

    zero_nodes: np.ndarray
    nonpositive_nodes: np.ndarray
    free_nodes: np.ndarray


def build_critical_cone(sol: VISolution) -> CriticalCone:
    """Classify interior nodes from a converged VI solution.

    The strongly active nodes of the solution become zero_nodes; the
    remaining active nodes are biactive and get the sign constraint. The
    active-set solver never activates a boundary node, so both sets lie in
    the interior.
    """
    zero = sol.strongly_active
    nonpos = sol.active_set & ~zero
    free = sol.u.mesh.interior_mask & ~sol.active_set
    return CriticalCone(zero, nonpos, free)


def direction_load(q: MatrixControlField, d: MatrixControlField,
                   u: ScalarField) -> np.ndarray:
    """Right side -(d grad u, grad phi) of the derivative VI along d; its
    boundary rows are those of the pinned system, which no solve reads."""
    if d.mesh is not q.mesh or u.mesh is not q.mesh:
        raise DimensionError("direction and solution must share the mesh")
    return -(assemble_stiffness(q.mesh, d) @ u.values)


def directional_derivative(q: MatrixControlField, d: MatrixControlField,
                           sol: VISolution,
                           cone: CriticalCone) -> ScalarField:
    """Derivative of the solution map at q in the control direction d:
    the cone derivative of its direction_load, positively homogeneous in
    d. The theory reads d as a feasible perturbation (q + d admissible);
    that is the caller's precondition, the solve only needs q elliptic."""
    return cone_derivative(q, direction_load(q, d, sol.u), cone)


def cone_derivative(q: MatrixControlField, load: np.ndarray,
                    cone: CriticalCone) -> ScalarField:
    """Solution of the cone-constrained VI with a load from direction_load.

    Minimizes 1/2 v' K_q v - load' v over v = 0 on zero_nodes, v <= 0 on
    nonpositive_nodes, by the same active-set iteration as the forward
    obstacle solve.
    """
    mesh = q.mesh
    upper = np.full(mesh.n_nodes, np.inf)
    upper[cone.nonpositive_nodes] = 0.0
    v = pdas_bound_solve(mesh, q.stiffness.pin(cone.zero_nodes), load,
                         upper)[0]
    return ScalarField(mesh, v)


def _derivative_multiplier(q: MatrixControlField, load: np.ndarray,
                           u_tilde: ScalarField) -> ScalarField:
    """Lumped nodal multiplier of the derivative VI, from its residual."""
    mesh = q.mesh
    resid = load - q.stiffness @ u_tilde.values
    lam = resid / mesh.lumped_mass
    lam[mesh.boundary_mask] = 0.0
    return ScalarField(mesh, lam)


def derivative_complementarity_check(u_tilde: ScalarField,
                                     cone: CriticalCone,
                                     q: MatrixControlField,
                                     load: np.ndarray) -> tuple:
    """Residual triple (feasibility, polarity, orthogonality) of the cone
    derivative u_tilde of the given direction_load.

    feasibility: worst cone violation of the derivative (|value| on
    zero_nodes, positive part on nonpositive_nodes). polarity: worst sign
    violation of the lumped multiplier (must be >= 0 on nonpositive_nodes,
    vanish on free nodes, free on zero_nodes). orthogonality: lumped
    pairing |<lam, u_tilde>|. All near zero at a converged solve.
    """
    mesh = u_tilde.mesh
    v = u_tilde.values
    lam = _derivative_multiplier(q, load, u_tilde).values
    feas = 0.0
    if cone.zero_nodes.any():
        feas = float(np.abs(v[cone.zero_nodes]).max())
    if cone.nonpositive_nodes.any():
        feas = max(feas, float(v[cone.nonpositive_nodes].max(initial=0.0)))
    polar = float(np.abs(lam[cone.free_nodes]).max(initial=0.0))
    if cone.nonpositive_nodes.any():
        polar = max(polar,
                    float((-lam[cone.nonpositive_nodes]).max(initial=0.0)))
    comp = float(abs(np.sum(mesh.lumped_mass * lam * v)))
    return feas, polar, comp
