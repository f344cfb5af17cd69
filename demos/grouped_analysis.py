"""Multi-arm analysis of paired measurements with dropouts, end to end.

Builds a synthetic eight-arm dose-finding dataset. Every patient has a
baseline measurement; dropouts have no completion measurement, so their
outcome (the relative change from baseline) is missing. Each arm is then
compared against the control with the robust one-sided test, and the
step-down familywise correction is applied to the worst-case p-values.

The command-line equivalent, with the transformed values in a CSV:

    rankguard analyze --data arms.csv --control placebo \
        --alternative greater --alpha 0.05 --holm
"""

import numpy as np

from rankguard import (
    Alternative,
    Sample,
    Support,
    holm_adjust,
    robust_test_general,
)

rng = np.random.default_rng(2718)

ARMS = {  # label -> (enrolled, dropouts, multiplicative treatment effect)
    "placebo": (94, 4, 1.00),
    "dose-1.25": (96, 6, 1.00),
    "dose-2.5": (92, 5, 0.95),
    "dose-5": (100, 11, 0.90),
    "dose-7.5": (97, 8, 0.80),
    "dose-10": (98, 9, 0.78),
    "dose-15": (125, 11, 0.70),
    "dose-20": (119, 7, 0.58),
}

samples = {}
for label, (enrolled, dropouts, effect) in ARMS.items():
    baseline = rng.lognormal(4.0, 0.7, size=enrolled)
    completion = baseline * effect * rng.lognormal(0.0, 0.55, size=enrolled)
    # the last `dropouts` patients never produce a completion measurement
    observed = [
        (c - b) / b
        for b, c, dropped in zip(baseline, completion, np.arange(enrolled) >= enrolled - dropouts)
        if not dropped
    ]
    samples[label] = Sample(tuple(observed), n_missing=dropouts)

control = samples["placebo"]
labels = [label for label in ARMS if label != "placebo"]
reports = [
    robust_test_general(control, samples[label], Support(), alpha=0.05,
                        alternative=Alternative.X_GREATER)
    for label in labels
]
adjusted = holm_adjust([r.p_max for r in reports])

print(f"{'arm':>10}  {'n':>4} {'miss':>4}  {'p_max':>8}  {'holm':>8}  decision")
for label, rep, adj in zip(labels, reports, adjusted):
    arm = samples[label]
    print(
        f"{label:>10}  {arm.total:>4} {arm.n_missing:>4}  "
        f"{rep.p_max:8.4f}  {adj:8.4f}  {rep.decision.value}"
    )
print("\np_max is the worst case over every completion of the dropouts, so a")
print("significant arm stays significant no matter what the dropouts hid.")
