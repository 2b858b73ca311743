#!/usr/bin/env bash
# Checkpoint/restore soak (docs/ROBUSTNESS.md#checkpointrestore): runs the
# Table-1 mini-fleet through fleet_study's checkpoint mode, kills it mid-run
# — once with a real SIGKILL while epochs are still executing, once at a
# deterministic barrier via --stop-after-epochs — resumes from the on-disk
# snapshot, and diffs the final event digest and streamed AggregateDigest
# against an uninterrupted run of the same configuration. After each barrier
# stop it also diffs every committed checkpoint directory against the
# uninterrupted run's: a resumed run must write the same bytes. Any mismatch
# or crash fails the script. CI runs this in Release and ASan/UBSan legs.
#
# Usage: tools/run_checkpoint_soak.sh
# Env knobs: BUILD_DIR, SOAK_DURATION_MS, SOAK_EVERY_MS, SOAK_WORKERS,
# SOAK_SEEDS, SOAK_CHAOS_MODES.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
FLEET="$BUILD/examples/fleet_study"

DURATION_MS="${SOAK_DURATION_MS:-2000}"
EVERY_MS="${SOAK_EVERY_MS:-250}"
WORKERS="${SOAK_WORKERS:-1 2 8}"
SEEDS="${SOAK_SEEDS:-5 11 23}"
# "plain" runs without a fault plan; "chaos" runs under the scripted
# crash + gray-slowdown + packet-loss plan; "rollout" adds a staged policy
# swap (docs/POLICY.md) at the run's midpoint on top of the chaos plan, so
# the kill/resume legs interrupt a rollout in flight.
CHAOS_MODES="${SOAK_CHAOS_MODES:-plain chaos rollout}"

if [[ ! -x "$FLEET" ]]; then
  echo "ERROR: $FLEET not built; run: cmake --build $BUILD --target fleet_study" >&2
  exit 1
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/ckpt-soak.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

# Prints "event_digest streamed_digest" from a completed run's output.
digests() {
  awk -F= '/^event_digest=/ {e=$2} /^streamed_digest=/ {s=$2} END {print e, s}' "$1"
}

# same_checkpoints <dir> <ref-dir>: every committed ckpt-* directory under
# <dir> is byte-identical (diff -r) to the one of the same name under
# <ref-dir>, and both hold the same number of them. Prints what differs.
same_checkpoints() {
  local dir="$1" ref="$2" ckpt name count=0 ref_count=0 rc=0
  for ckpt in "$dir"/ckpt-*; do
    name="$(basename "$ckpt")"
    [[ -d "$ckpt" && "$name" != *.tmp ]] || continue
    count=$((count + 1))
    if ! diff -r -q "$ckpt" "$ref/$name" >/dev/null 2>&1; then
      echo -n " $name"
      rc=1
    fi
  done
  for ckpt in "$ref"/ckpt-*; do
    [[ -d "$ckpt" && "$ckpt" != *.tmp ]] && ref_count=$((ref_count + 1))
  done
  if [[ "$count" -ne "$ref_count" ]]; then
    echo -n " ($count checkpoints, reference has $ref_count)"
    rc=1
  fi
  return "$rc"
}

# Prints "version stages" from a run's policy_version= line.
policy_state() {
  awk '/^policy_version=/ {
    split($1, v, "="); split($2, s, "="); print v[2], s[2]
  }' "$1"
}

failures=0
for mode in $CHAOS_MODES; do
  mode_flags=()
  [[ "$mode" == "chaos" ]] && mode_flags+=(--chaos)
  [[ "$mode" == "rollout" ]] && mode_flags+=(--chaos --rollout)
  for w in $WORKERS; do
    for seed in $SEEDS; do
      label="mode=$mode workers=$w seed=$seed"
      common=(--checkpoint-every="$EVERY_MS" --duration-ms="$DURATION_MS"
              --workers="$w" --seed="$seed")
      [[ ${#mode_flags[@]} -gt 0 ]] && common+=("${mode_flags[@]}")

      # Uninterrupted cadenced reference. Its checkpoints are what legs 2
      # and 3 compare the resumed runs' checkpoints against.
      ref_out="$WORK/ref-$mode-$w-$seed.txt"
      ref_dir="$WORK/ref-$mode-$w-$seed"
      "$FLEET" "${common[@]}" --checkpoint-dir="$ref_dir" >"$ref_out"
      read -r ref_event ref_streamed < <(digests "$ref_out")
      if [[ -z "$ref_event" || -z "$ref_streamed" ]]; then
        echo "FAIL [$label]: reference run produced no digests" >&2
        failures=$((failures + 1))
        continue
      fi
      read -r ref_policy ref_stages < <(policy_state "$ref_out")
      if [[ "$mode" == "rollout" && "$ref_stages" != "1" ]]; then
        echo "FAIL [$label]: rollout reference applied $ref_stages stages, want 1" >&2
        failures=$((failures + 1))
        continue
      fi

      # Leg 1: real SIGKILL once the first barrier snapshot is on disk. If
      # the run finishes before the kill lands, that is fine — resume then
      # restores the newest barrier and must still match.
      dir="$WORK/kill-$mode-$w-$seed"
      "$FLEET" "${common[@]}" --checkpoint-dir="$dir" >/dev/null 2>&1 &
      pid=$!
      for _ in $(seq 1 200); do
        if compgen -G "$dir/ckpt-*" >/dev/null 2>&1; then
          break
        fi
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.05
      done
      kill -9 "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
      if ! compgen -G "$dir/ckpt-*" >/dev/null 2>&1; then
        echo "FAIL [$label]: no checkpoint committed before the kill" >&2
        failures=$((failures + 1))
        continue
      fi
      res_out="$WORK/res-$mode-$w-$seed.txt"
      "$FLEET" "${common[@]}" --resume="$dir" >"$res_out"
      read -r res_event res_streamed < <(digests "$res_out")
      if [[ "$res_event" != "$ref_event" || "$res_streamed" != "$ref_streamed" ]]; then
        echo "FAIL [$label] SIGKILL leg: resumed ($res_event, $res_streamed)" \
             "!= uninterrupted ($ref_event, $ref_streamed)" >&2
        failures=$((failures + 1))
        continue
      fi

      # Leg 2: deterministic barrier stop (exit 3), then resume. Guarantees
      # an interrupt-at-barrier case even on hosts where leg 1's kill races
      # the run to completion.
      dir2="$WORK/stop-$mode-$w-$seed"
      rc=0
      "$FLEET" "${common[@]}" --checkpoint-dir="$dir2" --stop-after-epochs=2 \
        >/dev/null || rc=$?
      if [[ "$rc" -ne 3 ]]; then
        echo "FAIL [$label]: --stop-after-epochs leg exited $rc, want 3" >&2
        failures=$((failures + 1))
        continue
      fi
      res2_out="$WORK/res2-$mode-$w-$seed.txt"
      "$FLEET" "${common[@]}" --resume="$dir2" >"$res2_out"
      read -r res2_event res2_streamed < <(digests "$res2_out")
      if [[ "$res2_event" != "$ref_event" || "$res2_streamed" != "$ref_streamed" ]]; then
        echo "FAIL [$label] barrier leg: resumed ($res2_event, $res2_streamed)" \
             "!= uninterrupted ($ref_event, $ref_streamed)" >&2
        failures=$((failures + 1))
        continue
      fi
      if ! bad="$(same_checkpoints "$dir2" "$ref_dir")"; then
        echo "FAIL [$label] barrier leg: checkpoints differ from the uninterrupted" \
             "run's:$bad" >&2
        failures=$((failures + 1))
        continue
      fi

      # Leg 3 (rollout only): stop at a barrier *past* the midpoint swap, so
      # the resume restores an engine whose rollout already applied, and the
      # resumed run must still land on the reference digests and the same
      # final policy cursor. (Leg 2's epoch-2 stop covers the pre-swap side.)
      if [[ "$mode" == "rollout" ]]; then
        dir3="$WORK/swap-$mode-$w-$seed"
        rc=0
        "$FLEET" "${common[@]}" --checkpoint-dir="$dir3" --stop-after-epochs=6 \
          >/dev/null || rc=$?
        if [[ "$rc" -ne 3 ]]; then
          echo "FAIL [$label]: post-swap stop leg exited $rc, want 3" >&2
          failures=$((failures + 1))
          continue
        fi
        res3_out="$WORK/res3-$mode-$w-$seed.txt"
        "$FLEET" "${common[@]}" --resume="$dir3" >"$res3_out"
        read -r res3_event res3_streamed < <(digests "$res3_out")
        read -r res3_policy res3_stages < <(policy_state "$res3_out")
        if [[ "$res3_event" != "$ref_event" || "$res3_streamed" != "$ref_streamed" ||
              "$res3_policy" != "$ref_policy" || "$res3_stages" != "$ref_stages" ]]; then
          echo "FAIL [$label] post-swap leg: resumed ($res3_event, $res3_streamed," \
               "policy $res3_policy/$res3_stages) != uninterrupted ($ref_event," \
               "$ref_streamed, policy $ref_policy/$ref_stages)" >&2
          failures=$((failures + 1))
          continue
        fi
        if ! bad="$(same_checkpoints "$dir3" "$ref_dir")"; then
          echo "FAIL [$label] post-swap leg: checkpoints differ from the uninterrupted" \
               "run's:$bad" >&2
          failures=$((failures + 1))
          continue
        fi
      fi
      echo "OK   [$label] event=$ref_event streamed=$ref_streamed"
    done
  done
done

if [[ "$failures" -ne 0 ]]; then
  echo "checkpoint soak: $failures failure(s)" >&2
  exit 1
fi
echo "checkpoint soak: all digests and resumed checkpoints matched"
