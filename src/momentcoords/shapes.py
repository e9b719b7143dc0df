"""Built-in geometries used by the CLI and the test suite."""

from .geometry import REFERENCE_CUBE, Hexahedron, NodeSet1D, Quadrilateral


def biunit_square() -> Quadrilateral:
    return Quadrilateral([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])


def convex_quad() -> Quadrilateral:
    """Convex quadrilateral fixture with known rational Wachspress forms."""
    return Quadrilateral([(0.0, 0.0), (1.0, 0.0), (0.5, 4.0), (0.0, 2.0)])


def nonconvex_quad() -> Quadrilateral:
    """Nonconvex quadrilateral fixture (reflex corner at vertex 4)."""
    return Quadrilateral([(0.0, 0.0), (2.0, 0.0), (1.0, 4.0), (1.0, 2.0)])


def convex_hex() -> Hexahedron:
    """Convex planar-faced hexahedron fixture (a tapered box)."""
    return Hexahedron(
        [
            (1.0, 2.0, 1.0),
            (1.0, 2.0, -1.0),
            (1.0, 0.0, -1.0),
            (1.0, 0.0, 1.0),
            (-1.0, 1.0, 1.0),
            (-1.0, 1.0, -1.0),
            (-1.0, -1.0, -1.0),
            (-1.0, -1.0, 1.0),
        ]
    )


def cube(half: float = 1.0) -> Hexahedron:
    """The cube [-half, half]^3 in the reference vertex order."""
    return Hexahedron(float(half) * REFERENCE_CUBE)


def unit_interval(n: int = 5) -> NodeSet1D:
    """n evenly spaced nodes on [0, 1]."""
    if n < 3:
        raise ValueError("need at least 3 nodes")
    return NodeSet1D([i / (n - 1) for i in range(n)])


BUILTINS = {
    "biunit-square": biunit_square,
    "conv-quad": convex_quad,
    "nonconv-quad": nonconvex_quad,
    "conv-hex": convex_hex,
}
