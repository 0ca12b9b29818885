"""Dense views of a system's functionals, for tests that check a system
against dense linear algebra.  The package stores them only as CSR rows."""


def dense_functionals(system):
    """The (n, dim) array whose row k is the functional f_k = U[idx[k]]."""
    return system.functional_rows.dense(system.space.dim)[system.functional_index]
