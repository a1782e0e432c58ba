/* Native kernel for the scheduler's busy-time recurrence.
 *
 * Compiled on demand by repro/timing/_native.py (cc -O2 -fPIC -shared
 * -ffp-contract=off) and loaded via ctypes as the "native" entry of
 * SCHEDULER_BACKENDS.  The contract is *bit-identical* results with the
 * pure Python reference loop in repro/timing/scheduler.py: every duration
 * is the same IEEE-754 double multiply of the same operands, the
 * recurrence applies the same compare/add sequence in the same order, and
 * the final reduction mirrors CPython's max() (first element, replaced
 * only on strictly-greater comparison, so NaN handling matches too).
 *
 * -ffp-contract=off matters: a fused multiply-add of weight*relative+busy
 * rounds once where the Python loop rounds twice, which would break the
 * bit-identity contract on the very first op.  x86-64 SSE2 doubles are
 * IEEE-754 binary64, the same representation CPython floats use.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* A single op: endpoints a/b (qubit indices; b < 0 marks a single-qubit
 * op) and the relative duration.  Delays are looked up per evaluation in
 * `single` (per node) or the dense `pair` matrix (num_env_nodes ^ 2,
 * row-major), exactly like the Python reference's `_pair_weight`. */

static double final_max(const double *times, int64_t num_qubits)
{
    /* CPython max(): keep the first element, replace on item > best. */
    double best;
    int64_t q;
    if (num_qubits <= 0) {
        return 0.0;
    }
    best = times[0];
    for (q = 1; q < num_qubits; q++) {
        if (times[q] > best) {
            best = times[q];
        }
    }
    return best;
}

/* Full evaluation under the node assignment `nodes` (qubit -> node
 * index).  Optionally records the per-op duration table and the periodic
 * busy-time checkpoints (one row of num_qubits doubles every `interval`
 * ops, written *before* the op at that index is applied, starting at op
 * 0) that the incremental tail replay later restores.  `times` is a
 * caller-owned scratch buffer of num_qubits doubles (zeroed here).
 * Returns the circuit runtime. */
double repro_replay_full(
    int64_t num_ops,
    const int32_t *ops_a,
    const int32_t *ops_b,
    const double *relative,
    const int32_t *nodes,
    const double *single,
    const double *pair,
    int64_t num_env_nodes,
    int64_t num_qubits,
    int64_t interval,
    double *durations_out,
    double *checkpoints_out,
    double *times)
{
    int64_t i, checkpoint = 0;
    for (i = 0; i < num_qubits; i++) {
        times[i] = 0.0;
    }
    for (i = 0; i < num_ops; i++) {
        int32_t a = ops_a[i];
        int32_t b = ops_b[i];
        double duration;
        if (checkpoints_out != NULL && i % interval == 0) {
            memcpy(checkpoints_out + checkpoint * num_qubits, times,
                   (size_t)num_qubits * sizeof(double));
            checkpoint++;
        }
        if (b < 0) {
            duration = single[nodes[a]] * relative[i];
            times[a] = times[a] + duration;
        } else {
            double time_a = times[a];
            double time_b = times[b];
            double finish;
            duration =
                pair[(int64_t)nodes[a] * num_env_nodes + nodes[b]] * relative[i];
            finish = (time_a >= time_b ? time_a : time_b) + duration;
            times[a] = finish;
            times[b] = finish;
        }
        if (durations_out != NULL) {
            durations_out[i] = duration;
        }
    }
    return final_max(times, num_qubits);
}

/* Incremental tail replay: restore the checkpoint row covering `start`,
 * then replay ops start..num_ops-1.  Ops touching a changed qubit
 * (changed_flag[q] != 0, new node changed_target[q]) recompute their
 * duration from the delay tables; unaffected ops reuse base_durations.
 * With has_cutoff, the replay stops as soon as any busy time reaches
 * `cutoff` (busy times are monotone, so the final runtime is at least
 * that); *stop_index_out records the stopping op for the caller's
 * replayed-ops accounting, or -1 when the tail ran to completion.
 * Returns the runtime, or +inf on cutoff. */
double repro_replay_tail(
    int64_t start,
    int64_t num_ops,
    const int32_t *ops_a,
    const int32_t *ops_b,
    const double *relative,
    const double *base_durations,
    const int32_t *base_nodes,
    const int8_t *changed_flag,
    const int32_t *changed_target,
    const double *single,
    const double *pair,
    int64_t num_env_nodes,
    int64_t num_qubits,
    const double *checkpoint_row,
    double cutoff,
    int32_t has_cutoff,
    double *times,
    int64_t *stop_index_out)
{
    int64_t i;
    *stop_index_out = -1;
    if (checkpoint_row != NULL) {
        memcpy(times, checkpoint_row, (size_t)num_qubits * sizeof(double));
    } else {
        for (i = 0; i < num_qubits; i++) {
            times[i] = 0.0;
        }
    }
    for (i = start; i < num_ops; i++) {
        int32_t a = ops_a[i];
        int32_t b = ops_b[i];
        double finish;
        if (b < 0) {
            double duration;
            if (changed_flag[a]) {
                duration = single[changed_target[a]] * relative[i];
            } else {
                duration = base_durations[i];
            }
            finish = times[a] + duration;
            times[a] = finish;
        } else {
            double duration;
            double time_a, time_b;
            if (changed_flag[a] || changed_flag[b]) {
                int32_t node_a = changed_flag[a] ? changed_target[a] : base_nodes[a];
                int32_t node_b = changed_flag[b] ? changed_target[b] : base_nodes[b];
                duration =
                    pair[(int64_t)node_a * num_env_nodes + node_b] * relative[i];
            } else {
                duration = base_durations[i];
            }
            time_a = times[a];
            time_b = times[b];
            finish = (time_a >= time_b ? time_a : time_b) + duration;
            times[a] = finish;
            times[b] = finish;
        }
        if (has_cutoff && finish >= cutoff) {
            *stop_index_out = i;
            return HUGE_VAL; /* +inf, matching the Python float("inf") */
        }
    }
    return final_max(times, num_qubits);
}

/* Per-evaluator context: every constant operand of the two loops above,
 * bound once on the Python side (repro/timing/_native.py keeps a ctypes
 * Structure with this exact layout).  The ctx entry points exist because
 * marshalling 13-18 ctypes arguments per call costs more than a short
 * incremental replay itself; with the context, a tail replay passes four
 * scalars.  They delegate to the reference entry points, so the float
 * semantics are identical by construction.  The move_* and sweep_*
 * fields are outputs of repro_ctx_sweep. */
typedef struct {
    int64_t num_ops;
    int64_t num_qubits;
    int64_t num_env_nodes;
    int64_t interval;
    int64_t num_checkpoints;
    int64_t stop_index;
    int64_t move_node;
    int64_t move_occupant;
    int64_t sweep_evals;
    int64_t sweep_skipped;
    int64_t sweep_replayed;
    double base_runtime;
    double move_cost;
    const int32_t *ops_a;
    const int32_t *ops_b;
    const double *relative;
    const double *single_delays;
    const double *pair;
    const int32_t *eval_nodes;
    const int32_t *base_nodes;
    const int32_t *first_touch;
    int8_t *changed_flag;
    int32_t *changed_target;
    int32_t *occupant;
    double *base_durations;
    double *checkpoints;
    double *times;
} repro_replay_ctx;

/* Full evaluation through the context.  record != 0 evaluates the base
 * nodes and fills the duration/checkpoint tables; record == 0 evaluates
 * eval_nodes with no recording (the plain run_full path). */
double repro_ctx_full(repro_replay_ctx *ctx, int32_t record)
{
    double result = repro_replay_full(
        ctx->num_ops, ctx->ops_a, ctx->ops_b, ctx->relative,
        record ? ctx->base_nodes : ctx->eval_nodes,
        ctx->single_delays, ctx->pair, ctx->num_env_nodes, ctx->num_qubits,
        ctx->interval,
        record ? ctx->base_durations : NULL,
        record ? ctx->checkpoints : NULL,
        ctx->times);
    if (record) {
        ctx->base_runtime = result;
    }
    return result;
}

/* Incremental tail replay through the context; the checkpoint row is
 * derived from `start` here instead of being passed as a pointer.  The
 * stop index lands in ctx->stop_index. */
double repro_ctx_tail(repro_replay_ctx *ctx, int64_t start, double cutoff,
                      int32_t has_cutoff)
{
    int64_t checkpoint = start / ctx->interval;
    const double *row =
        checkpoint < ctx->num_checkpoints
            ? ctx->checkpoints + checkpoint * ctx->num_qubits
            : NULL;
    return repro_replay_tail(
        start, ctx->num_ops, ctx->ops_a, ctx->ops_b, ctx->relative,
        ctx->base_durations, ctx->base_nodes, ctx->changed_flag,
        ctx->changed_target, ctx->single_delays, ctx->pair,
        ctx->num_env_nodes, ctx->num_qubits, row, cutoff, has_cutoff,
        ctx->times, &ctx->stop_index);
}

/* One hill-climb sweep of fine tuning's candidate loop (the per-candidate
 * reference is _first_improving_move in repro/core/fine_tuning.py).  For
 * each movable qubit from position `start` on, in order, try every allowed
 * node in order except the qubit's base node: a move onto a free node, or
 * a swap with the qubit occupying it.  Each candidate is scored exactly
 * like RuntimeEvaluator.runtime_with with limit = `incumbent`: a candidate
 * touching no op costs the base runtime, any other replays the tail from
 * the checkpoint before its first touched op, with the monotone cutoff.
 * Returns the position of the first candidate strictly cheaper than
 * `incumbent` (its node, swapped occupant or -1, and cost land in
 * ctx->move_*), or -1 when none is.  ctx->sweep_* receive this call's
 * evaluation and skipped/replayed-op counts with the Python accounting,
 * cutoff correction included. */
int64_t repro_ctx_sweep(repro_replay_ctx *ctx, int64_t start,
                        int64_t num_movable, const int32_t *movable,
                        int64_t num_allowed, const int32_t *allowed,
                        double incumbent)
{
    int64_t i, position;
    int64_t evals = 0, skipped = 0, replayed = 0, found = -1;
    for (i = 0; i < ctx->num_env_nodes; i++) {
        ctx->occupant[i] = -1;
    }
    for (i = 0; i < ctx->num_qubits; i++) {
        ctx->occupant[ctx->base_nodes[i]] = (int32_t)i;
    }
    for (position = start; position < num_movable && found < 0; position++) {
        int32_t qubit = movable[position];
        int32_t current = ctx->base_nodes[qubit];
        int64_t k;
        for (k = 0; k < num_allowed; k++) {
            int32_t node = allowed[k];
            int32_t other = ctx->occupant[node];
            int64_t first = ctx->first_touch[qubit];
            double cost;
            if (node == current) {
                continue;
            }
            if (other >= 0 && ctx->first_touch[other] < first) {
                first = ctx->first_touch[other];
            }
            if (first >= ctx->num_ops) {
                cost = ctx->base_runtime;
            } else {
                int64_t replay_start = first / ctx->interval * ctx->interval;
                ctx->changed_flag[qubit] = 1;
                ctx->changed_target[qubit] = node;
                if (other >= 0) {
                    ctx->changed_flag[other] = 1;
                    ctx->changed_target[other] = current;
                }
                cost = repro_ctx_tail(ctx, replay_start, incumbent, 1);
                ctx->changed_flag[qubit] = 0;
                if (other >= 0) {
                    ctx->changed_flag[other] = 0;
                }
                evals++;
                skipped += replay_start;
                replayed += ctx->num_ops - replay_start;
                if (ctx->stop_index >= 0) {
                    replayed -= ctx->num_ops - 1 - ctx->stop_index;
                }
            }
            if (cost < incumbent) {
                found = position;
                ctx->move_node = node;
                ctx->move_occupant = other;
                ctx->move_cost = cost;
                break;
            }
        }
    }
    ctx->sweep_evals = evals;
    ctx->sweep_skipped = skipped;
    ctx->sweep_replayed = replayed;
    return found;
}
