"""Checks on the reference helpers themselves: the seeded fixture and the
quadrature integrand."""

import numpy as np
import pytest

from oracle_utils import make_gp_instance, quad_alpha
from twostep_cbo.lookahead import alpha


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n_constraints", [1, 2])
def test_every_seeded_instance_builds(d, n_constraints):
    """Seeds 0-39 build, with every constraint column inside its +-10 bound."""
    for seed in range(40):
        bundle, _ = make_gp_instance(seed, d=d, n_constraints=n_constraints)
        assert bundle.incumbent_value is not None
        assert len(bundle.active_constraints) == n_constraints


def test_quad_alpha_keeps_the_mass_of_a_far_tail_kink():
    """Conditioning on -1e6 at x=2 puts the EI kink about 4.6e8 SD out at
    x2 = 2.7; the quadrature must still see the whole improvement."""
    bundle, _ = make_gp_instance(2)
    x1, x2 = np.array([[2.0]]), np.array([2.7])
    y_f, y_g = np.array([-1e6]), np.array([[-1.0]])
    ref = alpha(bundle, x1, x2, y_f, y_g)
    assert quad_alpha(bundle, x1, x2, y_f, y_g) == pytest.approx(ref, rel=1e-9)
