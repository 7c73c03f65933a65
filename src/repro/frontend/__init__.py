"""Front-end: TAGE direction prediction, BTB target prediction, fetch unit."""

from repro.frontend.btb import Btb
from repro.frontend.tage import Tage
from repro.frontend.fetch import FetchUnit

__all__ = ["Btb", "Tage", "FetchUnit"]
