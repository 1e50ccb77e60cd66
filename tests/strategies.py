"""Hypothesis strategies shared by the property tests: small cavity networks
whose full product space stays small enough for the Kronecker oracles."""

from hypothesis import strategies as st

from tchlab.basis import HilbertSpace, NetworkConfig
from tchlab.operators import HopSpec

MAX_ATOMS = 3  # with 3 cavities at 2 photons the product space is 27 * 2**3


@st.composite
def networks(draw):
    """(space, hops): a random sector of a random network of 1-3 cavities
    with up to three atoms, and a set of distinct hop links."""
    n_cavities = draw(st.integers(1, 3))
    atoms = tuple(draw(st.lists(st.integers(0, 2), min_size=n_cavities, max_size=n_cavities)
                       .filter(lambda a: sum(a) <= MAX_ATOMS)))
    strength = st.floats(0.05, 2.0)
    config = NetworkConfig(
        n_cavities=n_cavities,
        atoms_per_cavity=atoms,
        couplings=tuple(draw(st.lists(strength, min_size=sum(atoms), max_size=sum(atoms)))),
        max_photons=draw(st.integers(1, 2)),
        omega=draw(st.floats(0.5, 2.0)),
    )
    pairs = [(i, j) for i in range(n_cavities) for j in range(i + 1, n_cavities)]
    links = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    hops = [HopSpec(i, j, amplitude=draw(strength), phase=draw(st.floats(-3.2, 3.2)))
            for i, j in links]
    space = HilbertSpace(config, draw(st.integers(0, config.max_sector)))
    return space, hops
