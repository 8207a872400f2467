"""Shared fixtures: small cube discretizations and the default desk problem.

Session scope keeps the expensive builds (desk-size morph, reduced basis)
to a single evaluation across the whole suite.
"""

import pytest

from maxwell_rb.assembly import ParametrizedSystem, assemble
from maxwell_rb.bench import setup_problem
from maxwell_rb.config import default_config, with_overrides
from maxwell_rb.eigen import SolverPolicy
from maxwell_rb.gauge import build_tree
from maxwell_rb.mesh import build_mesh, discrete_gradient
from maxwell_rb.rb import build_basis, make_training_sets
from maxwell_rb.reference import first_eigenvalue


@pytest.fixture(scope="session")
def cube2():
    return build_mesh((1.0, 1.0, 1.0), (2, 2, 2))


@pytest.fixture(scope="session")
def cube3():
    return build_mesh((1.0, 1.0, 1.0), (3, 3, 3))


@pytest.fixture(scope="session")
def cube3_pair(cube3):
    return assemble(cube3)


@pytest.fixture(scope="session")
def cube3_grad(cube3):
    return discrete_gradient(cube3)


@pytest.fixture(scope="session")
def cube3_gauge(cube3, cube3_grad):
    return build_tree(cube3, cube3_grad)


@pytest.fixture(scope="session")
def small_morph():
    """Cube-to-brick morph at resolution (3,3,3) with gauge and policy."""
    dims0, dims1 = (1.0, 1.0, 1.0), (1.0, 1.1, 1.2)
    mesh0 = build_mesh(dims0, (3, 3, 3))
    mesh1 = build_mesh(dims1, (3, 3, 3))
    psys = ParametrizedSystem(assemble(mesh0), assemble(mesh1))
    gauge = build_tree(mesh0, discrete_gradient(mesh0))
    policy = SolverPolicy.from_reference(
        min(first_eigenvalue(dims0), first_eigenvalue(dims1)), seed=1234
    )
    training = make_training_sets(6, 10, eval_size=5, seed=1234)
    return {"mesh0": mesh0, "psys": psys, "gauge": gauge,
            "policy": policy, "training": training}


@pytest.fixture(scope="session")
def small_basis(small_morph):
    m = small_morph
    return build_basis(m["psys"], m["gauge"], m["training"], K=5,
                       n_init="auto", tol=1e-6, n_max=12, policy=m["policy"])


@pytest.fixture(scope="session")
def small_basis_constant(cube3_pair, cube3_gauge, small_morph):
    psys = ParametrizedSystem(cube3_pair, cube3_pair)
    return build_basis(psys, cube3_gauge, small_morph["training"], K=5,
                       n_init="auto", tol=1e-6, n_max=12,
                       policy=small_morph["policy"])


@pytest.fixture(scope="session")
def desk_cfg():
    return default_config()


@pytest.fixture(scope="session")
def desk_problem(desk_cfg):
    return setup_problem(desk_cfg)


@pytest.fixture(scope="session")
def desk_basis(desk_problem):
    return desk_problem.build("mixed")


@pytest.fixture(scope="session")
def desk_classical_basis(desk_problem):
    return desk_problem.build("classical")


@pytest.fixture()
def tiny_cfg():
    """Fast CLI-scale configuration at resolution (3,3,3)."""
    return with_overrides(default_config(), resolution=(3, 3, 3), N_POD=6,
                          N_train=10, N_max=12, eval_set_size=5)
