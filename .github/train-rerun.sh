#!/usr/bin/env bash
# Console-script reruns must write the same bytes.
#
#     bash .github/train-rerun.sh WORKDIR
#
# Runs the installed `gcnn` console script in WORKDIR (made if missing).
# Two trainings of one small synth set must write the same bytes, for an
# ungrouped model (grouped_conv1d with one group), a coeff model with
# two groups (channelwise_conv1d, then grouped_conv1d over two blocks),
# the ungrouped model again at momentum 0.9 with a clip_norm of 0.5,
# which clips 6 of its 12 steps (the others train at momentum 0 and never
# clip), and an explicit rcnn model on a hand-written shuffled assignment
# whose group 1 is one stage share (6 / 3 = 2 channels) wide, so the
# grouped lift passes that group through and lifts the other two; the
# pool (window 3, stride 2: width 8 pools to 3) overlaps, so gradients
# add up across windows; the checkpoint's first line is its JSON header,
# and eval must load it.  The ungrouped model trains once more for one
# epoch, which keeps no best-epoch snapshot and returns the parameters as
# they end, and with kernel gradients computed straight into the gradient
# vector (numpy's matmul into a view, on the oldest supported numpy too).
# The coeff model trains once more with tanh hidden activations, which
# every fused layer op applies in place (numpy's tanh into its own input).
# Each training parses synth.csv into a fresh directory, so it leaves a
# parsed.bin: the two of each config, and every config's first, must
# match the one `gcnn ingest` writes for synth.csv.
# Then a copy of the set whose header names two
# series "a,b" and "q""x" (quoted CSV cells) goes through cluster and an
# explicit train twice: the quoted names must come back from the
# assignment cluster writes, and the reruns must match byte for byte.
set -euo pipefail

work=$1
mkdir -p "$work"
python -c "import sys; from gcnn import data, synth; data.save_csv(synth.generate(synth.SynthSpec(length=120, seed=5)), sys.argv[1])" "$work/synth.csv"
model="stage_channels: [6, 6], pool_before: [2], pool_window: 3, pool_stride: 2, dense_units: [4, 1]"
cat > "$work/rcnn-assignment.csv" <<EOF
series_name,group_id
g1s1,3
g1s2,1
g1s3,2
g1s4,3
g2s1,2
g2s2,3
g2s3,2
g2s4,3
g3s1,1
g3s2,3
g3s3,2
g3s4,3
EOF
for cfg in train coeff momentum rcnn one-epoch tanh; do
  grouping=""
  step=""
  epochs=2
  if [ "$cfg" = one-epoch ]; then epochs=1; fi
  if [ "$cfg" = coeff ]; then grouping="grouping: coeff, groups: 2, "; fi
  if [ "$cfg" = tanh ]; then grouping="grouping: coeff, groups: 2, hidden_activation: tanh, "; fi
  if [ "$cfg" = momentum ]; then step=", momentum: 0.9, clip_norm: 0.5"; fi
  if [ "$cfg" = rcnn ]; then
    grouping="grouping: explicit, groups: 3, family: rcnn, "
    step=", assignment: $work/rcnn-assignment.csv"
  fi
  cat > "$work/$cfg.yaml" <<EOF
data: {path: $work/synth.csv, target: target, window: 8}
model: {$grouping$model}
train: {epochs: $epochs, batch_size: 16$step}
EOF
  for run in 1 2; do
    gcnn train "$work/$cfg.yaml" --out "$work/$cfg$run"
  done
  for name in checkpoint.json history.csv parsed.bin; do
    cmp "$work/${cfg}1/$name" "$work/${cfg}2/$name"
  done
  head -n 1 "$work/${cfg}1/checkpoint.json" | python -m json.tool > /dev/null
  gcnn eval "$work/$cfg.yaml" --out "$work/${cfg}1"
done
gcnn ingest "$work/train.yaml" --out "$work/ingested"
for cfg in train coeff momentum rcnn one-epoch tanh; do
  cmp "$work/${cfg}1/parsed.bin" "$work/ingested/parsed.bin"
done

sed '1s/,g1s1,/,"a,b",/; 1s/,g2s1,/,"q""x",/' "$work/synth.csv" > "$work/quoted.csv"
cat > "$work/explicit.yaml" <<EOF
data: {path: $work/quoted.csv, target: target, window: 8}
model: {grouping: explicit, groups: 3, $model}
train: {epochs: 2, batch_size: 16, assignment: $work/explicit/assignment.csv}
EOF
# both runs write to one directory, as the config names the assignment's path
for run in 1 2; do
  rm -rf "$work/explicit" "$work/explicit$run"
  gcnn cluster "$work/explicit.yaml" --out "$work/explicit"
  gcnn train "$work/explicit.yaml" --out "$work/explicit"
  mv "$work/explicit" "$work/explicit$run"
done
grep -q '^"a,b",' "$work/explicit1/assignment.csv"
grep -q '^"q""x",' "$work/explicit1/assignment.csv"
for name in assignment.csv checkpoint.json history.csv parsed.bin; do
  cmp "$work/explicit1/$name" "$work/explicit2/$name"
done
