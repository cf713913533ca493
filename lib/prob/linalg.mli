(** Dense linear algebra for the small (d <= 4) systems this library
    needs: covariance matrices of 2-D/3-D locations and the normal
    equations of the logistic-regression fit (d = 5).

    Matrices are [float array array] in row-major order; all functions
    are total over well-formed square inputs and raise
    [Invalid_argument] otherwise. Nothing here is tuned for large d —
    clarity over blocking. *)

type mat = float array array

val copy : mat -> mat
val transpose : mat -> mat
val mat_mul : mat -> mat -> mat
val mat_vec : mat -> float array -> float array

val cholesky : mat -> mat
(** Lower-triangular [l] with [l * l^T = a] for a symmetric positive
    definite [a]. A tiny jitter (1e-12 on the diagonal) is added once if
    the matrix is only semidefinite — covariances of degenerate particle
    clouds hit this constantly. @raise Invalid_argument if the matrix is
    not square or not positive (semi)definite even after jitter. *)

val solve_spd : mat -> float array -> float array
(** Solve [a x = b] for symmetric positive definite [a]. *)

