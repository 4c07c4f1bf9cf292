// scis_client — command-line client for scis_serve.
//
//   scis_client --port 4821 --input data.csv --output imputed.csv
//               [--host 127.0.0.1] [--port_file serve.port]
//               [--rows_per_request 16] [--ping] [--shutdown]
//
// Reads an incomplete CSV, sends its rows to the server in request-sized
// chunks (missing cells travel as NaN), and writes the completed table —
// byte-identical to what scis_impute would have produced offline with the
// served model. --ping checks liveness; --shutdown asks the server to drain
// and exit. Either can be combined with or used without --input.
#include <cmath>
#include <cstdio>

#include "common/flags.h"
#include "data/csv.h"
#include "serve/client.h"

using namespace scis;

int main(int argc, char** argv) {
  std::string host = "127.0.0.1", port_file, input, output;
  long long port = 0;
  long long rows_per_request = 16;
  bool ping = false, shutdown = false;
  FlagParser flags;
  flags.AddString("host", &host, "server address (dotted quad)");
  flags.AddInt("port", &port, "server port");
  flags.AddString("port_file", &port_file,
                  "read the port from this file (scis_serve --port_file)");
  flags.AddString("input", &input, "incomplete CSV to impute");
  flags.AddString("output", &output, "where to write the imputed CSV");
  flags.AddInt("rows_per_request", &rows_per_request,
               "rows per request frame");
  flags.AddBool("ping", &ping, "check server liveness first");
  flags.AddBool("shutdown", &shutdown, "ask the server to drain and exit");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::printf("%s\n", st.ToString().c_str());
    return st.code() == StatusCode::kOutOfRange ? 0 : 1;
  }
  if (!port_file.empty()) {
    FILE* f = std::fopen(port_file.c_str(), "r");
    long p = 0;
    if (f == nullptr || std::fscanf(f, "%ld", &p) != 1) {
      std::printf("cannot read port from %s\n", port_file.c_str());
      if (f != nullptr) std::fclose(f);
      return 1;
    }
    std::fclose(f);
    port = p;
  }
  if (port <= 0) {
    std::printf("--port or --port_file is required (see --help)\n");
    return 1;
  }
  if (rows_per_request < 1) rows_per_request = 1;

  Result<std::unique_ptr<serve::ImputationClient>> connected =
      serve::ImputationClient::Connect(host, static_cast<int>(port));
  if (!connected.ok()) {
    std::printf("%s\n", connected.status().ToString().c_str());
    return 1;
  }
  serve::ImputationClient& client = **connected;

  if (ping) {
    if (Status st = client.Ping(); !st.ok()) {
      std::printf("ping: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("pong from %s:%lld\n", host.c_str(), port);
  }

  if (!input.empty()) {
    if (output.empty()) {
      std::printf("--output is required with --input\n");
      return 1;
    }
    Result<Dataset> loaded = ReadCsvDataset(input, "input");
    if (!loaded.ok()) {
      std::printf("read failed: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    const Dataset& raw = loaded.value();
    // Missing cells travel as quiet NaN, the wire encoding of "impute me".
    Matrix request(raw.num_rows(), raw.num_cols());
    for (size_t i = 0; i < raw.num_rows(); ++i) {
      for (size_t j = 0; j < raw.num_cols(); ++j) {
        request(i, j) = raw.IsObserved(i, j)
                            ? raw.values()(i, j)
                            : std::numeric_limits<double>::quiet_NaN();
      }
    }
    Matrix imputed(raw.num_rows(), raw.num_cols());
    const size_t chunk = static_cast<size_t>(rows_per_request);
    for (size_t r0 = 0; r0 < request.rows(); r0 += chunk) {
      const size_t r1 = std::min(request.rows(), r0 + chunk);
      Result<Matrix> reply = client.Impute(request.RowRange(r0, r1));
      if (!reply.ok()) {
        std::printf("impute rows [%zu, %zu): %s\n", r0, r1,
                    reply.status().ToString().c_str());
        return 1;
      }
      for (size_t i = r0; i < r1; ++i) {
        for (size_t j = 0; j < raw.num_cols(); ++j) {
          imputed(i, j) = reply.value()(i - r0, j);
        }
      }
    }
    Dataset out = Dataset::Complete("imputed", std::move(imputed),
                                    raw.columns());
    if (Status st = WriteCsvDataset(out, output); !st.ok()) {
      std::printf("write failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("imputed %zu rows -> %s\n", raw.num_rows(), output.c_str());
  }

  if (shutdown) {
    if (Status st = client.RequestShutdown(); !st.ok()) {
      std::printf("shutdown: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("server acknowledged shutdown\n");
  }
  return 0;
}
