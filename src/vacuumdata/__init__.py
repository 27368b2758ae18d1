"""Spherically symmetric vacuum initial data with prescribed mean curvature.

Re-exports each layer's ``__all__``, the one declaration of the public API.
"""

from .errors import *
from .radial import *
from .conformal import *
from .solver import *
from .verify import *

__version__ = "0.1.0"
