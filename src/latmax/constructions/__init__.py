"""Named example systems with precomputed expectations attached.

Each module has one entry function: ``haar.haar_system``,
``lindenstrauss.lindenstrauss_witness``, ``hadamard.hadamard_mixed``,
``rademacher.rademacher_l1``, ``triangular.triangular_basis``,
``typewriter.pass_profile``, ``lorentz.lorentz_blocking_demo`` and
``orlicz.orderbound_demo``.
"""

from latmax.constructions.bundles import WitnessBundle

__all__ = ["WitnessBundle"]
