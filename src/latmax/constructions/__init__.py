"""Named example systems and the exact values they are built to show.

Each module has one entry function, which returns plain values:
``haar.haar_system`` and ``rademacher.rademacher_l1`` a system,
``hadamard.hadamard_mixed`` the system with its modulus sum,
``triangular.triangular_basis`` the system with its kernel scaling,
``lindenstrauss.chain_witness`` the chain rows, reports and whether its
windowed walk telescoped (``lindenstrauss_witness`` adds the whole join as
an element and y_m, from the closed form),
``typewriter.pass_profile`` the pass's join, oscillation and length,
``lorentz.lorentz_blocking_demo`` two series with their growth fits and
``orlicz.orderbound_demo`` one series of norms.
"""
