"""Numerical verification of the Virasoro-Bott two-cocycle construction.

The package builds the group side out of explicit disc and ball
diffeomorphisms and the algebra side out of disc vector fields, then
checks that the two ends of the construction meet: the group 2-cocycle
gamma, its Wess-Zumino primitive omega0, the Lie-algebra cocycle beta
with its boundary reduction G(beta), and the generator structure
constants that recover the Virasoro relations.

Layout
------
``trigpoly``
    Trigonometric polynomials on the circle with exact products,
    derivatives, and period integrals; the circle bracket and the
    Gelfand-Fuchs pairing.
``diffeo``
    Composable disc/ball diffeomorphism links (rotations, flows, and
    angular links with a certified orientation, such as radial twists and
    Alexander extensions of circle maps) with exact or FD4 2-jets.
``forms``
    Quadrature grids, batched Maurer-Cartan components, wedge-trace
    densities, and the closed 3-forms eta_n.
``cocycle``
    The group 2-cocycle gamma, Wess-Zumino ball terms, omega0, and the
    coboundary/normality residuals.
``liealg``
    Disc vector fields, beta and G(beta), semidirect brackets, and the
    generator bracket tables.
``cli``
    The ``virbott`` command: check suites, JSON reports, convergence CSV.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
