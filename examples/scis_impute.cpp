// scis_impute — command-line imputation of a CSV file.
//
//   scis_impute --input data.csv --output imputed.csv
//               [--method SCIS-GAIN|GAIN|GINN|MICE|MissF|...]
//               [--epochs 30] [--epsilon 0.001] [--n0 500] [--seed 7]
//               [--threads 0] [--save_params model.bin]
//
// Missing cells are empty fields / NA / nan / null. The pipeline is the
// library's canonical one: min-max normalize on observed cells, fit the
// chosen imputer (SCIS-accelerated for the GAN methods), apply Eq. 1, and
// write the completed table back in original units.
//
// --save_params writes a self-contained checkpoint (generator weights +
// normalizer stats + column schema, the mmap-able v3 format of
// nn/serialize.h) that scis_serve maps and serves zero-copy. Only the
// generator-backed methods (SCIS-GAIN/GINN, GAIN, GINN) have one to save.
// --save_index additionally writes a mask-aware ANN index over the
// normalized training rows; scis_serve --index loads it for
// retrieval-augmented imputation.
#include <cstdio>

#include "common/flags.h"
#include "common/stopwatch.h"
#include "core/scis.h"
#include "data/csv.h"
#include "data/normalizer.h"
#include "eval/experiment.h"
#include "index/ann_index.h"
#include "nn/serialize.h"
#include "models/gain_imputer.h"
#include "runtime/runtime.h"

using namespace scis;

namespace {

// Packages everything serving needs alongside the weights: the model tag,
// the column schema, and the normalizer stats fitted on this input.
CheckpointMeta MakeMeta(const std::string& model, const Dataset& raw,
                        const MinMaxNormalizer& norm) {
  CheckpointMeta meta;
  meta.model = model;
  for (const ColumnMeta& c : raw.columns()) {
    CheckpointColumn col;
    col.name = c.name;
    col.kind = static_cast<int>(c.kind);
    col.num_categories = c.num_categories;
    meta.columns.push_back(std::move(col));
  }
  meta.norm_lo = norm.lo();
  meta.norm_hi = norm.hi();
  return meta;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input, output, method = "SCIS-GAIN", save_params, save_index;
  long long epochs = 30;
  long long n0 = 500;
  double epsilon = 0.001;
  long long seed = 7;
  long long threads = 0;
  FlagParser flags;
  flags.AddString("input", &input, "incomplete CSV (header row required)");
  flags.AddString("output", &output, "where to write the imputed CSV");
  flags.AddString("method", &method,
                  "SCIS-GAIN, SCIS-GINN, or any baseline name");
  flags.AddInt("epochs", &epochs, "training epochs for deep methods");
  flags.AddInt("n0", &n0, "SCIS initial sample size");
  flags.AddDouble("epsilon", &epsilon, "SCIS user-tolerated error bound");
  flags.AddInt("seed", &seed, "random seed");
  flags.AddInt("threads", &threads,
               "worker threads (0 = SCIS_NUM_THREADS or hardware)");
  flags.AddString("save_params", &save_params,
                  "optional path to checkpoint the trained generator "
                  "(scis_serve --params)");
  flags.AddString("save_index", &save_index,
                  "optional path for an ANN index over the normalized "
                  "training rows (scis_serve --index)");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::printf("%s\n", st.ToString().c_str());
    return st.code() == StatusCode::kOutOfRange ? 0 : 1;
  }
  if (threads > 0) runtime::SetNumThreads(static_cast<int>(threads));
  if (input.empty() || output.empty()) {
    std::printf("--input and --output are required (see --help)\n");
    return 1;
  }

  Result<Dataset> loaded = ReadCsvDataset(input, "input");
  if (!loaded.ok()) {
    std::printf("read failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  Dataset raw = std::move(loaded).value();
  std::printf("%s: %zu rows x %zu cols, %.2f%% missing\n", input.c_str(),
              raw.num_rows(), raw.num_cols(), 100.0 * raw.MissingRate());
  if (raw.MissingRate() == 0.0) {
    std::printf("nothing to impute; copying through\n");
    return WriteCsvDataset(raw, output).ok() ? 0 : 1;
  }

  MinMaxNormalizer norm;
  Dataset train = norm.FitTransform(raw);

  Matrix imputed_norm;
  std::unique_ptr<Imputer> model;
  GenerativeImputer* gen = nullptr;  // model's generator, if it has one
  Stopwatch watch;
  const bool use_scis =
      method == "SCIS-GAIN" || method == "SCIS-GINN";
  if (use_scis) {
    const std::string base = method.substr(5);
    Result<std::unique_ptr<GenerativeImputer>> gen_res =
        MakeGenerativeImputer(base, static_cast<uint64_t>(seed));
    if (!gen_res.ok()) {
      std::printf("%s\n", gen_res.status().ToString().c_str());
      return 1;
    }
    gen = gen_res->get();
    model = std::move(gen_res).value();
    ScisOptions opts;
    opts.validation_size = std::min<size_t>(1000, raw.num_rows() / 4);
    opts.initial_size = static_cast<size_t>(n0);
    opts.dim.epochs = static_cast<int>(epochs);
    opts.dim.lambda = 130.0;
    opts.sse.epsilon = epsilon;
    Scis scis(opts);
    Result<Matrix> res = scis.Run(*gen, train);
    if (!res.ok()) {
      std::printf("SCIS failed: %s\n", res.status().ToString().c_str());
      return 1;
    }
    imputed_norm = std::move(res).value();
    std::printf("SCIS: n* = %zu (R_t = %.2f%%), SSE %.2fs, total %.2fs\n",
                scis.report().n_star,
                100.0 * scis.report().training_sample_rate,
                scis.report().sse_seconds, scis.report().total_seconds);
  } else {
    Result<std::unique_ptr<Imputer>> imp =
        MakeImputer(method, static_cast<int>(epochs),
                    static_cast<uint64_t>(seed));
    if (!imp.ok()) {
      std::printf("%s\n", imp.status().ToString().c_str());
      return 1;
    }
    if (Status st = (*imp)->Fit(train); !st.ok()) {
      std::printf("fit failed: %s\n", st.ToString().c_str());
      return 1;
    }
    imputed_norm = (*imp)->Impute(train);
    model = std::move(imp).value();
    gen = dynamic_cast<GenerativeImputer*>(model.get());
  }
  if (!save_params.empty()) {
    if (gen == nullptr) {
      std::printf("checkpoint: skipped (%s has no generator)\n",
                  method.c_str());
    } else {
      Status st = SaveCheckpoint(gen->generator_params(),
                                 MakeMeta(gen->name(), raw, norm), save_params);
      std::printf("checkpoint %s: %s\n", save_params.c_str(),
                  st.ToString().c_str());
    }
  }
  std::printf("imputation took %.2fs\n", watch.ElapsedSeconds());

  if (!save_index.empty()) {
    const index::AnnIndex idx =
        index::AnnIndex::Build(train.values(), train.mask(), {});
    Status st = idx.Save(save_index);
    std::printf("index %s: %s (%zu rows, %zu nodes, depth %zu)\n",
                save_index.c_str(), st.ToString().c_str(), idx.num_rows(),
                idx.num_nodes(), idx.depth());
  }

  // Back to original units; observed cells keep their exact input values.
  Matrix imputed = norm.InverseTransform(imputed_norm);
  for (size_t i = 0; i < raw.num_rows(); ++i) {
    for (size_t j = 0; j < raw.num_cols(); ++j) {
      if (raw.IsObserved(i, j)) imputed(i, j) = raw.values()(i, j);
    }
  }
  Dataset out = Dataset::Complete("imputed", std::move(imputed),
                                  raw.columns());
  if (Status st = WriteCsvDataset(out, output); !st.ok()) {
    std::printf("write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", output.c_str());
  return 0;
}
