"""choicetrust: rationality patterns and trust degrees for staged choice histories.

The library turns a reviewer's recorded four-stage choice episodes into
per-period preference digraphs, extracts per-object run patterns, places
them in the rationality outcome set, and attaches a degree of
trustworthiness to each review; a separate information index ranks graded
lists, and a brute-force checker verifies small choice functions for
contraction consistency and rationalizability.
"""

__version__ = "0.1.0"

from .choice_model import *
from .consistency import *
from .errors import *
from .info_index import *
from .pattern_runs import *
from .preference_graph import *
from .rationality_outcomes import *
from .trust_scoring import *

# Each import above also binds its submodule's name in this package.
__all__ = [
    "__version__",
    *choice_model.__all__,
    *consistency.__all__,
    *errors.__all__,
    *info_index.__all__,
    *pattern_runs.__all__,
    *preference_graph.__all__,
    *rationality_outcomes.__all__,
    *trust_scoring.__all__,
]
