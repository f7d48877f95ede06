"""Reference change-point models and defaults of the lab and the CLI.

All live on T = 1000 with the change at c = 500 and scale n = 1, and are
meant to be analysed with window size h = 150.  The four orientation
presets realise the four shapes of the systematic deviation (fin heading
west/east, upright/inverted); the two distortion presets exhibit a
visible local-estimation bias around the change point.
"""

from __future__ import annotations

from .renewal import ChangePointModel, RenewalSpec

__all__ = [
    "SHARK_WEST",
    "SHARK_EAST",
    "SHARK_WEST_INVERTED",
    "SHARK_EAST_INVERTED",
    "DISTORTION_A",
    "DISTORTION_B",
    "ORIENTATION_MODELS",
]

DEFAULT_H = 150.0
DEFAULT_SUITE_SEED = 20260811  # of the verification suite

# rate 1 -> 20 with count-variance rate sigma2/mu^3 rising 1 -> 20
SHARK_WEST = ChangePointModel(
    RenewalSpec.gamma(1, 1), RenewalSpec.gamma(1, 20), c=500.0, T=1000.0)

# rate 1 -> 20 with count-variance rate falling 20 -> 1
SHARK_EAST = ChangePointModel(
    RenewalSpec.gamma(1 / 20, 1 / 20), RenewalSpec.gamma(20, 400), c=500.0, T=1000.0)

# rate 20 -> 1, count-variance rate rising
SHARK_WEST_INVERTED = ChangePointModel(
    RenewalSpec.gamma(20, 400), RenewalSpec.gamma(1 / 20, 1 / 20), c=500.0, T=1000.0)

# rate 20 -> 1, count-variance rate falling
SHARK_EAST_INVERTED = ChangePointModel(
    RenewalSpec.gamma(1, 20), RenewalSpec.gamma(1, 1), c=500.0, T=1000.0)

ORIENTATION_MODELS = {
    "west_fin": SHARK_WEST,
    "east_fin": SHARK_EAST,
    "west_fin_inverted": SHARK_WEST_INVERTED,
    "east_fin_inverted": SHARK_EAST_INVERTED,
}

# gamma shape drops 1 -> 1/4 at fixed rate parameter: strong distortion
DISTORTION_A = ChangePointModel(
    RenewalSpec.gamma(1, 5), RenewalSpec.gamma(1 / 4, 5), c=500.0, T=1000.0)

# gamma rate parameter doubles at fixed shape 2: milder distortion
DISTORTION_B = ChangePointModel(
    RenewalSpec.gamma(2, 10), RenewalSpec.gamma(2, 20), c=500.0, T=1000.0)
