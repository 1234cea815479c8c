"""Exact-arithmetic laboratory for recurrent sequence models.

Everything is computed over arbitrary-precision rationals: weighted finite
automata, counter and stack machines, linear recurrences with three
evaluation strategies, the gadget programs that factor arbitrary transition
matrices into structured per-token steps, exact ReLU-network simulations of
the automata, and seeded generators for the associated benchmark tasks.
"""

from .kernels import BACKEND
from .rational import PrecisionReport, Rational, precision_of
from .linalg import (
    RMatrix,
    RVector,
    RelaxedPermutation,
    perm_apply_diag,
    perm_compose,
    row_apply,
)
from .automata import (
    CounterMachine,
    StackMachine,
    Wfa,
    build_conn_counter_machine,
    cm_run,
    hankel_identity_rank,
    sm_run,
    wfa_eval,
    wfa_is_deterministic,
)
from .lrnn import (
    DeltaNetStep,
    LinStep,
    PdStep,
    RwkvStep,
    ScanStats,
    deltanet_transition,
    dwfa_to_pd,
    lrnn_run_conv,
    lrnn_run_scan,
    lrnn_run_sequential,
    pd_closed_form,
    pd_transition,
    pd_tree_product,
    rwkv_transition,
)
from .rwkv_gadgets import (
    OverwriteSpec,
    build_rwkv_imm,
    build_rwkv_wfa,
    factor_apply_matrix,
    overwrite_matrix,
    rwkv_imm_forward,
    rwkv_params_for_overwrite,
    rwkv_wfa_forward,
)
from .delta_gadgets import (
    HStep,
    apply_matrix_program,
    build_dnet_imm,
    build_dnet_wfa,
    dnet_imm_forward,
    dnet_wfa_forward,
    h_matrix,
    scaled_add,
    unit_transvection,
)
from .relu_nets import (
    MlpRnn,
    ReluMlp,
    cm_to_mlp_rnn,
    gadget_eq_zero,
    gadget_lut,
    gadget_select,
    gadget_threshold,
    run_mlp_rnn,
    sm_to_mlp_rnn,
)
from .problems import (
    ImmModInstance,
    ImmZInstance,
    SortedDetConnInstance,
    conn_oracle,
    encode_conn_unary,
    gen_conn,
    gen_imm_mod,
    gen_imm_z,
    imm_mod_oracle,
    imm_z_oracle,
    reduce_to_sorted,
)

__version__ = "0.1.0"
