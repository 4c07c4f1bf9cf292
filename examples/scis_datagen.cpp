// scis_datagen — emit the Table-II-shaped synthetic datasets as CSV, for
// use with scis_impute or external tools:
//
//   scis_datagen --dataset Trial --scale 0.5 --output trial.csv
//                [--labels trial_labels.csv] [--complete trial_full.csv]
//
// The incomplete CSV uses empty fields for missing cells. `--complete`
// additionally writes the ground-truth matrix (what a real evaluation
// would never have — handy for scoring demos).
#include <cstdio>
#include <fstream>

#include "common/flags.h"
#include "data/covid_synth.h"
#include "data/csv.h"

using namespace scis;

int main(int argc, char** argv) {
  std::string dataset = "Trial", output, labels_path, complete_path;
  double scale = 0.1;
  long long seed = 1;
  FlagParser flags;
  flags.AddString("dataset", &dataset,
                  "Trial|Emergency|Response|Search|Weather|Surveil");
  flags.AddDouble("scale", &scale, "row-count multiplier vs the paper");
  flags.AddString("output", &output, "incomplete CSV to write");
  flags.AddString("labels", &labels_path,
                  "optional CSV of downstream labels (one column)");
  flags.AddString("complete", &complete_path,
                  "optional CSV of the fully observed ground truth");
  flags.AddInt("seed", &seed, "generator seed override (0 = preset)");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::printf("%s\n", st.ToString().c_str());
    return st.code() == StatusCode::kOutOfRange ? 0 : 1;
  }
  if (output.empty()) {
    std::printf("--output is required (see --help)\n");
    return 1;
  }

  SyntheticSpec spec;
  for (const SyntheticSpec& s : AllCovidSpecs(scale)) {
    if (s.name == dataset) spec = s;
  }
  if (spec.name.empty()) {
    std::printf("unknown dataset %s\n", dataset.c_str());
    return 1;
  }
  if (seed != 0) spec.seed = static_cast<uint64_t>(seed);

  LabeledDataset gen = GenerateSynthetic(spec);
  std::printf("%s: %zu rows x %zu cols, %.2f%% missing (%s task)\n",
              spec.name.c_str(), gen.incomplete.num_rows(),
              gen.incomplete.num_cols(),
              100.0 * gen.incomplete.MissingRate(),
              spec.task == TaskKind::kClassification ? "classification"
                                                     : "regression");
  if (Status st = WriteCsvDataset(gen.incomplete, output); !st.ok()) {
    std::printf("%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", output.c_str());
  if (!complete_path.empty()) {
    if (Status st = WriteCsvDataset(gen.complete, complete_path); !st.ok()) {
      std::printf("%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", complete_path.c_str());
  }
  if (!labels_path.empty()) {
    std::ofstream out(labels_path);
    if (!out) {
      std::printf("cannot open %s\n", labels_path.c_str());
      return 1;
    }
    out << "label\n";
    for (double y : gen.labels) out << y << "\n";
    std::printf("wrote %s\n", labels_path.c_str());
  }
  return 0;
}
