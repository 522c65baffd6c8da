"""One distprod set-up as a user pays it.

Imports the package from the checkout's ``src/`` and pairs one height against
a Taylor-subtracted test function, which also builds the lazy Chebyshev table
of the plateau cutoff.  Run as a script, it prints the seconds this took;
``run.py`` starts it in fresh processes to measure ``setup_s`` and calls
``warm_up`` itself before it starts timing.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def warm_up() -> complex:
    from distprod.boundary import catalog
    from distprod.extension import SubtractedFunction
    from distprod.pairing import ProductExpression, pair_at_y
    from distprod.testfn import PlateauCutoff, TestFunction

    delta = catalog("delta")
    gauss = TestFunction((1.0,), sigma=0.7071067811865476)
    phibar = SubtractedFunction(gauss, PlateauCutoff(1.0, 2.0), 0)
    return pair_at_y(ProductExpression((delta, delta)), phibar, 0.1)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    warm_up()
    print(time.perf_counter() - START)
