"""Shared frozen reference values.

Eigenvalues at lambda = 5 and 10 were produced by the package's own
certification (Sturm bracket plus Wronskian match, residuals at machine
level) and cross-checked against dense tridiagonal diagonalization of the
discrete operator. The deep-well values (lambda = 20 and 40, and sphere
k=3) come from the independent factored scipy shot of test_oracle.py alone,
which also checks the eigenvalues below against itself. They are frozen so
regressions surface as value drift, not as silently moving baselines.
Threshold slopes come from the affine far field at the continuum edge.
"""

# sphere k=2 gap eigenvalues
MU2_SPHERE_K2 = {
    5.0: 7.683978201207e-02,
    10.0: 2.296689867701e-02,
    20.0: 6.149162802290e-03,
    40.0: 1.574277346348e-03,
}

# Yang-Mills gap eigenvalues
MU2_YM = {
    5.0: 1.320442512366e-01,
    10.0: 4.758579509898e-02,
    20.0: 1.384379170632e-02,
    40.0: 3.655414631750e-03,
}

# sphere k=3, lambda=40: a deep-well case (well at r ~ 0.05, depth ~ -2.5e3)
MU2_SPHERE_K3_L40 = 2.90008882735e-06

# large-k family at Theta = 100
MU2_LARGEK_100 = {8: 7.943794009437e-03, 16: 7.415132251538e-03}
MU2_LARGEK_INF_100 = 7.243283890948e-03

# threshold slopes b for sphere k=1 (normalization: leading Frobenius
# coefficient 1 of the regular solution, phi ~ r^(3/2)). b is read off
# phi = zeta f with zeta normalized the same way, so it does not depend on
# where the shot starts
B_SPHERE_K1 = {
    0.25: 1.640510,
    0.5: 1.275100,
    1.0: 0.6002109,
    1.2: 0.4297414,
    1.35: 0.3337780,
}
