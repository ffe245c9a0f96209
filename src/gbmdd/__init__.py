"""Stable exponential divided differences with exact moment, correlation and
approximate option-price analytics for geometric Brownian motion and its
time average, plus an independent Monte Carlo verification harness.  The
paper's identities, the oracles, are `gbmdd.oracles`: not loaded here."""

from .divdiff import *
from .moments import *
from .montecarlo import *
from .pricing import *

__version__ = "0.1.0"
