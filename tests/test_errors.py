import math
import re
from fractions import Fraction

import numpy as np
import pytest

from adapterlab.errors import ConfigError, require_fraction


@pytest.mark.parametrize("value", [0, 1, np.float32(0.5), Fraction(1, 2), 1.0])
def test_real_inside_a_closed_interval_is_returned(value):
    assert require_fraction("rate", value) is value


@pytest.mark.parametrize("value", [True, False, "0.5", None, 1j, math.nan, -0.1, 1.5, math.inf])
def test_real_that_is_no_real_or_outside_is_refused_naming_the_field(value):
    with pytest.raises(ConfigError, match=r"rate must be a real number in \[0, 1\]"):
        require_fraction("rate", value)


@pytest.mark.parametrize("ends, low_ok, high_ok", [("[]", True, True), ("[)", True, False)])
def test_real_interval_ends_are_open_or_closed_as_asked(ends, low_ok, high_ok):
    # below_one opens the upper end; the lower end is closed either way
    for value, ok in ((0.0, low_ok), (1.0, high_ok), (0.5, True)):
        if ok:
            assert require_fraction("rate", value, below_one=not high_ok) == value
        else:
            with pytest.raises(ConfigError, match=re.escape(f"in {ends[0]}0, 1{ends[1]}")):
                require_fraction("rate", value, below_one=not high_ok)
