import math

import pytest

from rankguard import Distribution, DomainError, make_distribution


@pytest.mark.parametrize("spec, bounds", [
    ("normal(0,1)", (-math.inf, math.inf)),
    ("poisson(2)", (0.0, math.inf)),
    ("uniform(-1,2.5)", (-1.0, 2.5)),
    ("exponential(3)", (0.0, math.inf)),
])
def test_support_bounds_of_every_family(spec, bounds):
    dist = make_distribution(spec)
    assert dist.support_bounds == bounds
    # the bounds are derived: the constructor, equality and repr see name and params only
    assert dist == Distribution(dist.name, dist.params)
    assert repr(dist) == f"Distribution(name={dist.name!r}, params={dist.params!r})"


@pytest.mark.parametrize("spec, message", [
    ("normal(0,0)", "sigma > 0"),
    ("normal(0)", "sigma > 0"),
    ("poisson(-1)", "lam > 0"),
    ("uniform(1,1)", "a < b"),
    ("exponential(0)", "rate > 0"),
    ("cauchy(0,1)", "unknown distribution 'cauchy'; valid: normal, poisson"),
    ("normal(0,nan)", "requires finite parameters"),
    ("uniform(0,inf)", "requires finite parameters"),
    ("poisson(inf)", "requires finite parameters"),
    ("exponential(nan)", "requires finite parameters"),
])
def test_each_family_states_its_parameter_rule(spec, message):
    with pytest.raises(DomainError, match=message):
        make_distribution(spec)
