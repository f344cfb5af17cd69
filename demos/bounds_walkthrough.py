"""Walk through the attainable-range machinery on a tiny discrete dataset.

Two groups rate an item on a 1..4 scale. One rating in the second group was
never collected. Instead of imputing it, compute every statistic the missing
rating could produce, and test against the worst case.
"""

import numpy as np

from rankguard import (
    Sample,
    Support,
    p_value_bounds,
    robust_test_general,
    stat_bounds_general,
    variance_bounds,
    wmw_statistic,
)

x = Sample((1, 2, 3, 2, 2, 1, 1))          # fully observed
y = Sample((3, 3, 3, 3, 3, 3), n_missing=1)  # one rating missing
scale = Support(lower=1, upper=4)

print("observed statistic W(x', y') =", wmw_statistic(x.observed, y.observed))

# Every completion of the missing rating lands in this interval:
bounds = stat_bounds_general(x, y, scale)
print(f"attainable statistic range: [{bounds.w_min}, {bounds.w_max}]")

# Enumerate the four possible ratings to see the interval is tight.
completions = []
for fill in (1, 2, 3, 4):
    w = wmw_statistic(x.observed, np.append(y.observed, fill))
    completions.append(w)
    print(f"  if the missing rating were {fill}: W = {w}")
# every completion lies inside the interval and both ends are reached
assert (min(completions), max(completions)) == (bounds.w_min, bounds.w_max)

# Ties move the null variance too, so bound it as well.
var = variance_bounds(x, y)
print(f"variance range: [{var.sigma2_min}, {var.sigma2_max}]"
      f"  (= [{float(var.sigma2_min):.3f}, {float(var.sigma2_max):.3f}])")

# Both rectangles together give p-value bounds ...
p_low, p_high, same_sign = p_value_bounds(bounds, var)
print(f"attainable two-sided p range: [{p_low:.4f}, {p_high:.4f}]"
      f"  (one-sided-of-center: {same_sign})")

# ... and the robust test makes the call from the worst case.
report = robust_test_general(x, y, scale, alpha=0.05)
print(f"decision at alpha = 0.05: {report.decision.value}"
      f"  (p_max = {report.p_max:.4f})")

# Without the bounded scale the interval is wider and the worst case worse:
loose = robust_test_general(x, y, Support(), alpha=0.05)
print(f"ignoring the bounded scale: range [{loose.w_bounds.w_min}, "
      f"{loose.w_bounds.w_max}], p_max = {loose.p_max:.4f}")
