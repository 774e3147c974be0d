import pytest

from modalstab.basis import Domain, enumerate_modes
from modalstab.controller import scaled_gain_set
from modalstab.diagnostics import GridEvaluator
from modalstab.simulator import (PolynomialSpec, assemble_closed_loop,
                                 integrate, project_initial_condition)

LAMBDA = 6.61
RADIUS = 2.0
GAMMAS_DISK = (6.17, 7.17, 8.17, 9.17, 10.17)
GAMMAS_BALL = (5.147, 6.147, 7.147, 8.147)


@pytest.fixture(scope="session")
def disk():
    return Domain("disk", RADIUS)


@pytest.fixture(scope="session")
def ball():
    return Domain("ball", RADIUS)


@pytest.fixture(scope="session")
def disk_modes(disk):
    modes, summary = enumerate_modes(disk, LAMBDA, 300)
    return modes, summary


@pytest.fixture(scope="session")
def ball_modes(ball):
    modes, summary = enumerate_modes(ball, LAMBDA, 300)
    return modes, summary


@pytest.fixture(scope="session")
def disk800_modes(disk):
    modes, summary = enumerate_modes(disk, LAMBDA, 800)
    return modes, summary


@pytest.fixture(scope="session")
def disk800_gains(disk800_modes):
    modes, _ = disk800_modes
    return scaled_gain_set(modes, GAMMAS_DISK, -0.5)


@pytest.fixture(scope="session")
def disk_gains(disk_modes):
    modes, _ = disk_modes
    return scaled_gain_set(modes, GAMMAS_DISK, -0.5)


@pytest.fixture(scope="session")
def ball_gains(ball_modes):
    modes, _ = ball_modes
    return scaled_gain_set(modes, GAMMAS_BALL, -0.5)


@pytest.fixture(scope="session")
def disk_system(disk, disk_modes, disk_gains):
    modes, _ = disk_modes
    return assemble_closed_loop(modes, disk_gains, disk)


@pytest.fixture(scope="session")
def ball_system(ball, ball_modes, ball_gains):
    modes, _ = ball_modes
    return assemble_closed_loop(modes, ball_gains, ball)


@pytest.fixture(scope="session")
def disk_evaluator(disk, disk_modes):
    modes, _ = disk_modes
    return GridEvaluator(modes, disk, 50)


@pytest.fixture(scope="session")
def ball_evaluator(ball, ball_modes):
    modes, _ = ball_modes
    return GridEvaluator(modes, ball, 40)


@pytest.fixture(scope="session")
def disk_u0_seed1(disk, disk_modes):
    modes, _ = disk_modes
    return project_initial_condition(disk, modes, PolynomialSpec(), seed=1)


@pytest.fixture(scope="session")
def disk_traj_seed1(disk_system, disk_u0_seed1):
    return integrate(disk_system, disk_u0_seed1, 0.05, 4.0)


@pytest.fixture(scope="session")
def ball_traj_seed1(ball, ball_modes, ball_system):
    modes, _ = ball_modes
    u0 = project_initial_condition(ball, modes, PolynomialSpec(), seed=1)
    return integrate(ball_system, u0, 0.05, 4.0)
