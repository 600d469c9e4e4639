(** Ordinary-least-squares linear regression — WebSubmit's grade-prediction
    model (§9: "a machine learning model over students' grades (training
    and inference)"). Training solves the normal equations by Gaussian
    elimination with partial pivoting. *)

type model = { weights : float array; intercept : float }

val train : features:float array list -> targets:float list -> (model, string) result
(** Fails on empty data, inconsistent dimensions, or a singular system
    (e.g. perfectly collinear features). *)

val predict : model -> float array -> float
val mean_squared_error : model -> features:float array list -> targets:float list -> float

val train_simple : (float * float) list -> (model, string) result
(** One-feature convenience used by tests: fits [y = w*x + b]. *)

val train_interleaved : float array -> (model, string) result
(** {!train_simple} over the points laid out flat as
    [[| x0; y0; x1; y1; ... |]], the sandbox's flat-f64 payload. Same
    observations in the same order, same arithmetic: the model is
    bit-identical to {!train_simple}'s on the same pairs. *)
