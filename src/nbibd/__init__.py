"""Near-balanced incomplete block designs for review assignment.

Builds judge-to-poster assignments that keep per-poster review counts
within one of each other, avoid repeated poster pairs, and stay
connected at every prefix; fits fixed- and random-judge score models to
the resulting reviews; and compares design kinds in a paired Monte
Carlo study.  Every public name of the four modules is re-exported here.
"""

from . import design, generate, model, simulate
from ._util import FileFormatError

__version__ = "0.1.0"

__all__ = ["__version__", "FileFormatError", *design.__all__, *generate.__all__, *model.__all__, *simulate.__all__]

# after __all__ has read the modules: this rebinds generate to the function
from .design import *  # noqa: E402,F403
from .generate import *  # noqa: E402,F403
from .model import *  # noqa: E402,F403
from .simulate import *  # noqa: E402,F403
