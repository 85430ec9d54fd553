#include "gen/designs.hpp"
#include "graph/circuit_graph.hpp"
#include "netlist/hierarchy.hpp"
#include "serve/client.hpp"
#include "serve/core.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/json_writer.hpp"
#include "util/metrics.hpp"

#include <arpa/inet.h>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <limits>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

namespace cgps {
namespace {

using serve::Request;
using serve::Response;
using serve::ServeOptions;
using serve::Status;
using serve::TaskKind;

GpsConfig small_config() {
  GpsConfig c;
  c.hidden = 16;
  c.layers = 1;
  c.heads = 2;
  c.performer_features = 8;
  c.head_hidden = 16;
  c.seed = 11;
  return c;
}

// Shared serving fixture: one generated design, one model. The coalescing
// contract is only bit-exact on the scalar backend, and the CI matrix runs
// the suite under CIRCUITGPS_BACKEND=avx2, so pin the backend before the
// first forward.
struct ServeFixture {
  ServeFixture() {
    ::setenv("CIRCUITGPS_BACKEND", "scalar", /*overwrite=*/1);
    const Netlist netlist = flatten(gen::make_design(gen::DatasetId::kTimingControl));
    CircuitGraph cg = build_circuit_graph(netlist);
    normalizer.fit(cg.xc);
    design.name = "timing_control";
    design.graph = std::move(cg.graph);
    design.xc = std::move(cg.xc);
    model = std::make_unique<CircuitGps>(small_config());
  }

  ServeOptions options() const {
    ServeOptions o;
    o.max_batch = 16;
    o.queue_cap = 64;
    o.default_deadline_us = 60'000'000;
    o.subgraph.max_nodes_per_anchor = 32;
    return o;
  }

  Request link_request(std::uint64_t id, std::int32_t a, std::int32_t b) const {
    Request r;
    r.id = id;
    r.task = TaskKind::kLink;
    r.node_a = a;
    r.node_b = b;
    return r;
  }

  serve::ServedDesign design;
  XcNormalizer normalizer;
  std::unique_ptr<CircuitGps> model;
};

ServeFixture& fixture() {
  static ServeFixture f;
  return f;
}

TEST(ServeCore, CoalescedMatchesSoloBitwise) {
  ServeFixture& f = fixture();
  const std::int32_t n = static_cast<std::int32_t>(f.design.graph.num_nodes());
  std::vector<Request> requests;
  for (std::int32_t i = 0; i < 12; ++i) {
    Request r = f.link_request(static_cast<std::uint64_t>(i + 1), i % n, (i * 7 + 3) % n);
    if (i % 3 == 2) r.task = TaskKind::kEdgeCap;
    if (i % 4 == 3) {
      r.task = TaskKind::kNodeCap;
      r.node_b = -1;
    }
    requests.push_back(r);
  }

  // One run_cycle serves all 12 as a single coalesced batch.
  std::vector<Response> coalesced(requests.size());
  {
    serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
    for (std::size_t i = 0; i < requests.size(); ++i)
      core.submit(requests[i], [&coalesced, i](const Response& r) { coalesced[i] = r; });
    EXPECT_EQ(core.run_cycle(), static_cast<int>(requests.size()));
  }

  // Solo oracle: each request alone through its own cycle.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
    Response solo;
    core.submit(requests[i], [&solo](const Response& r) { solo = r; });
    EXPECT_EQ(core.run_cycle(), 1);
    ASSERT_EQ(coalesced[i].status, Status::kOk) << "request " << i;
    ASSERT_EQ(solo.status, Status::kOk) << "request " << i;
    // Bitwise: == on float, no tolerance.
    EXPECT_EQ(coalesced[i].value, solo.value) << "request " << i;
    EXPECT_EQ(coalesced[i].cap_farads, solo.cap_farads) << "request " << i;
  }
}

// A non-finite forward output has no meaningful probability or capacitance.
// sigmoid/clamp would pass NaN through as a kOk reply; the core must answer
// kError and count it instead.
TEST(ServeCore, NonFiniteOutputAnswersError) {
  ServeFixture& f = fixture();
  CircuitGps poisoned(small_config());
  Tensor out_bias = poisoned.named_parameters().back().second;  // head_mlp output bias
  for (float& v : out_bias.data()) v = std::numeric_limits<float>::quiet_NaN();
  Counter& nonfinite = metric_counter("serve.nonfinite");
  nonfinite.reset();
  serve::ServeCore core(poisoned, f.normalizer, {f.design}, f.options());
  Response out;
  core.submit(f.link_request(1, 0, 1), [&out](const Response& r) { out = r; });
  EXPECT_EQ(core.run_cycle(), 1);
  EXPECT_EQ(out.status, Status::kError);
  EXPECT_EQ(nonfinite.value(), 1);
}

TEST(ServeCore, ExpiredDeadlineIsShedAsTimeout) {
  ServeFixture& f = fixture();
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
  Request r = f.link_request(1, 0, 1);
  r.deadline_us = 1;  // 1 µs budget: expired by the time the cycle runs
  Response out;
  core.submit(r, [&out](const Response& resp) { out = resp; });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(core.run_cycle(), 1);  // shed requests still count as answered
  EXPECT_EQ(out.status, Status::kTimeout);
}

TEST(ServeCore, FullQueueRejectsWithOverloaded) {
  ServeFixture& f = fixture();
  ServeOptions opts = f.options();
  opts.queue_cap = 2;
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, opts);
  std::vector<Status> seen;
  auto record = [&seen](const Response& r) { seen.push_back(r.status); };
  EXPECT_TRUE(core.submit(f.link_request(1, 0, 1), record));
  EXPECT_TRUE(core.submit(f.link_request(2, 1, 2), record));
  // Queue full: rejected inline, from the calling thread.
  EXPECT_FALSE(core.submit(f.link_request(3, 2, 3), record));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], Status::kOverloaded);
  while (core.run_cycle() > 0) {
  }
}

TEST(ServeCore, StopDrainsAcceptedWorkThenRefuses) {
  ServeFixture& f = fixture();
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
  core.start();
  std::atomic<int> answered{0};
  for (int i = 0; i < 8; ++i) {
    core.submit(f.link_request(static_cast<std::uint64_t>(i + 1), i, i + 1),
                [&answered](const Response& r) {
                  if (r.status == Status::kOk) answered.fetch_add(1);
                });
  }
  core.stop();  // must not return before every accepted request is answered
  EXPECT_EQ(answered.load(), 8);
  Response post;
  EXPECT_FALSE(core.submit(f.link_request(99, 0, 1),
                           [&post](const Response& r) { post = r; }));
  EXPECT_EQ(post.status, Status::kShutdown);
}

TEST(ServeCore, BadDesignAndBadNodeAnsweredInline) {
  ServeFixture& f = fixture();
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
  Request r = f.link_request(1, 0, 1);
  r.design = 7;
  Response out;
  EXPECT_TRUE(core.submit(r, [&out](const Response& resp) { out = resp; }));
  EXPECT_EQ(out.status, Status::kBadDesign);

  Request bad_node = f.link_request(2, -1, 1);
  EXPECT_TRUE(core.submit(bad_node, [&out](const Response& resp) { out = resp; }));
  EXPECT_EQ(out.status, Status::kBadNode);

  Request big = f.link_request(3, 0, static_cast<std::int32_t>(f.design.graph.num_nodes()));
  EXPECT_TRUE(core.submit(big, [&out](const Response& resp) { out = resp; }));
  EXPECT_EQ(out.status, Status::kBadNode);
}

TEST(ServeServer, SocketRoundTripOnEphemeralPort) {
  ServeFixture& f = fixture();
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
  core.start();
  serve::ServeServer server(core, /*port=*/0);
  ASSERT_TRUE(server.start());
  ASSERT_GT(server.port(), 0);

  serve::ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  // Metadata probe.
  Request info;
  info.id = 41;
  info.task = TaskKind::kInfo;
  const auto probe = client.call(info);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->id, 41u);
  EXPECT_EQ(probe->status, Status::kOk);
  EXPECT_EQ(static_cast<std::int64_t>(probe->value), f.design.graph.num_nodes());

  // Pipelined burst through the buffered client path: enqueue all, one
  // flush, collect responses by id.
  const int burst = 10;
  for (int i = 0; i < burst; ++i)
    client.enqueue(f.link_request(static_cast<std::uint64_t>(100 + i), i, i + 2));
  ASSERT_TRUE(client.flush());
  std::uint64_t id_sum = 0;
  for (int i = 0; i < burst; ++i) {
    const auto response = client.recv();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, Status::kOk);
    id_sum += response->id;
  }
  EXPECT_EQ(id_sum, static_cast<std::uint64_t>(burst) * 100 +
                        static_cast<std::uint64_t>(burst - 1) * burst / 2);

  // Bad design surfaces through the wire with its id intact.
  Request bad = f.link_request(7, 0, 1);
  bad.design = 3;
  const auto bad_response = client.call(bad);
  ASSERT_TRUE(bad_response.has_value());
  EXPECT_EQ(bad_response->id, 7u);
  EXPECT_EQ(bad_response->status, Status::kBadDesign);

  client.close();
  server.stop();
  core.stop();
}

// kStats over a real socket: the snapshot must carry the full
// cgps-serve-stats-v1 surface, with finite windowed quantiles once requests
// have been served, and the connection must keep answering normal requests
// after a stats fetch.
TEST(ServeServer, StatsRoundTripOverSocket) {
  ServeFixture& f = fixture();
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
  serve::ServeIdentity identity;
  identity.checkpoint = "test-ckpt";
  identity.build = "test-build";
  core.set_identity(identity);
  core.start();
  serve::ServeServer server(core, /*port=*/0);
  ASSERT_TRUE(server.start());

  serve::ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  const int burst = 8;
  for (int i = 0; i < burst; ++i) {
    const auto r = client.call(f.link_request(static_cast<std::uint64_t>(i + 1), i, i + 2));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, Status::kOk);
  }

  const std::optional<std::string> stats = client.fetch_stats();
  ASSERT_TRUE(stats.has_value());
  std::string error;
  const std::optional<JsonValue> parsed = json_parse(*stats, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  const auto str_field = [&](const std::vector<std::string>& path) {
    const JsonValue* v = parsed->find(path[0]);
    for (std::size_t i = 1; v != nullptr && i < path.size(); ++i) v = v->find(path[i]);
    return v != nullptr && v->type == JsonValue::Type::kString ? v->string
                                                               : std::string("<missing>");
  };
  const auto num_field = [&](const std::vector<std::string>& path) {
    const JsonValue* v = parsed->find(path[0]);
    for (std::size_t i = 1; v != nullptr && i < path.size(); ++i) v = v->find(path[i]);
    return v != nullptr && v->type == JsonValue::Type::kNumber
               ? v->number
               : std::numeric_limits<double>::quiet_NaN();
  };

  EXPECT_EQ(str_field({"schema"}), "cgps-serve-stats-v1");
  EXPECT_EQ(num_field({"proto_version"}), serve::kProtocolVersion);
  EXPECT_EQ(str_field({"checkpoint"}), "test-ckpt");
  EXPECT_EQ(str_field({"build"}), "test-build");
  EXPECT_GE(num_field({"uptime_s"}), 0.0);
  EXPECT_GT(num_field({"rss_bytes"}), 0.0);

  const JsonValue* designs = parsed->find("designs");
  ASSERT_NE(designs, nullptr);
  ASSERT_EQ(designs->array.size(), 1u);
  EXPECT_EQ(designs->array[0].find("name")->string, "timing_control");
  EXPECT_EQ(static_cast<std::int64_t>(designs->array[0].find("nodes")->number),
            f.design.graph.num_nodes());

  // The burst landed within the last 10 seconds: the window must have mass
  // and finite interpolated quantiles.
  EXPECT_GE(num_field({"windows", "10s", "done"}), static_cast<double>(burst));
  EXPECT_GT(num_field({"windows", "10s", "qps"}), 0.0);
  EXPECT_TRUE(std::isfinite(num_field({"windows", "10s", "p50_s"})));
  EXPECT_TRUE(std::isfinite(num_field({"windows", "10s", "p95_s"})));
  EXPECT_TRUE(std::isfinite(num_field({"windows", "10s", "p99_s"})));
  EXPECT_EQ(num_field({"windows", "10s", "window_s"}), 10.0);
  EXPECT_EQ(num_field({"windows", "60s", "window_s"}), 60.0);

  // Registry mirror: lifetime counters and the live-connection gauge.
  EXPECT_GE(num_field({"registry", "counters", "serve.requests"}),
            static_cast<double>(burst));
  EXPECT_GE(num_field({"registry", "counters", "serve.stats_requests"}), 1.0);
  EXPECT_EQ(num_field({"registry", "gauges", "serve.active_connections"}), 1.0);

  // The same connection still serves ordinary requests after a stats fetch.
  const auto after = client.call(f.link_request(99, 0, 1));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, Status::kOk);

  client.close();
  server.stop();
  core.stop();
}

// Regression probe: a fresh daemon with zero completed requests must still
// serialize a valid JSON snapshot — empty-window quantiles are JSON null
// (the writer's encoding of NaN), rates are 0, and no bare NaN/Inf token
// leaks into the document (bare tokens would break every JSON consumer).
TEST(ServeCore, FreshDaemonStatsAreValidJsonWithoutNanInf) {
  ServeFixture& f = fixture();
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
  const std::string stats = core.stats_json();

  EXPECT_EQ(stats.find("nan"), std::string::npos);
  EXPECT_EQ(stats.find("NaN"), std::string::npos);
  EXPECT_EQ(stats.find("inf"), std::string::npos);
  EXPECT_EQ(stats.find("Infinity"), std::string::npos);

  std::string error;
  const std::optional<JsonValue> parsed = json_parse(stats, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  const JsonValue* w10 = parsed->find("windows");
  ASSERT_NE(w10, nullptr);
  w10 = w10->find("10s");
  ASSERT_NE(w10, nullptr);
  EXPECT_EQ(w10->find("done")->number, 0.0);
  EXPECT_EQ(w10->find("qps")->number, 0.0);
  EXPECT_EQ(w10->find("shed_rate")->number, 0.0);
  EXPECT_EQ(w10->find("reject_rate")->number, 0.0);
  // Empty-window quantiles serialize as null, never as a number.
  EXPECT_EQ(w10->find("p50_s")->type, JsonValue::Type::kNull);
  EXPECT_EQ(w10->find("p99_s")->type, JsonValue::Type::kNull);

  // Resident-memory fields: the served design's footprint and the fp32 model.
  const JsonValue* designs = parsed->find("designs");
  ASSERT_NE(designs, nullptr);
  ASSERT_EQ(designs->array.size(), 1u);
  EXPECT_GT(designs->array[0].find("resident_bytes")->number, 0.0);
  EXPECT_GT(parsed->find("model_fp32_bytes")->number, 0.0);
}

// Corrupt or truncated frames carrying (or pretending to carry) a kStats
// request must be answered with kError and a dropped connection, exactly
// like any other protocol violation — the stream offset is untrustworthy.
TEST(ServeServer, CorruptStatsFramesGetErrorAndClose) {
  ServeFixture& f = fixture();
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
  core.start();
  serve::ServeServer server(core, /*port=*/0);
  ASSERT_TRUE(server.start());

  const auto raw_connect = [&]() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  };
  const auto expect_error_then_eof = [&](int fd) {
    std::vector<std::uint8_t> buf;
    std::uint8_t chunk[4096];
    for (;;) {
      const ssize_t got = ::read(fd, chunk, sizeof(chunk));
      if (got <= 0) break;  // server closed after flushing the error
      buf.insert(buf.end(), chunk, chunk + got);
    }
    std::size_t pos = 0;
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(serve::scan_frame(buf, pos, payload), serve::FrameScan::kFrame);
    const auto response = serve::decode_response(payload);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, Status::kError);
    EXPECT_EQ(pos, buf.size());  // nothing after the error frame
    ::close(fd);
  };

  {
    // Truncated kStats request: length prefix honest, payload cut short.
    Request r;
    r.id = 5;
    r.task = TaskKind::kStats;
    std::vector<std::uint8_t> payload = serve::encode_request(r);
    payload.resize(payload.size() / 2);
    std::vector<std::uint8_t> framed;
    serve::append_frame(framed, payload);
    const int fd = raw_connect();
    ASSERT_TRUE(serve::write_all_bytes(fd, framed.data(), framed.size()));
    expect_error_then_eof(fd);
  }
  {
    // Oversized length prefix: corrupt before any payload arrives.
    const std::uint8_t evil[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    const int fd = raw_connect();
    ASSERT_TRUE(serve::write_all_bytes(fd, evil, sizeof(evil)));
    expect_error_then_eof(fd);
  }

  server.stop();
  core.stop();
}

// Access log: every finished request appends one cgps-serve-access-v1 JSONL
// record, and the file rotates through the CIRCUITGPS_RUN_LOG_MAX_MB cap
// like the training run log.
TEST(ServeCore, AccessLogWritesSchemaRecordsAndRotates) {
  ServeFixture& f = fixture();
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "cgps_access_test.jsonl").string();
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  ::setenv("CIRCUITGPS_SERVE_ACCESS_LOG", path.c_str(), /*overwrite=*/1);
  ::setenv("CIRCUITGPS_RUN_LOG_MAX_MB", "0.001", /*overwrite=*/1);  // ~1 KiB cap

  const int total = 24;
  {
    serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
    int done = 0;
    for (int i = 0; i < total; ++i)
      core.submit(f.link_request(static_cast<std::uint64_t>(i + 1), i % 8, (i + 3) % 8),
                  [&done](const Response&) { ++done; });
    while (done < total) ASSERT_GT(core.run_cycle(), 0);
  }
  ::unsetenv("CIRCUITGPS_SERVE_ACCESS_LOG");
  ::unsetenv("CIRCUITGPS_RUN_LOG_MAX_MB");

  // ~190 bytes/record * 24 records >> 1 KiB: the cap must have rotated.
  EXPECT_TRUE(std::filesystem::exists(path + ".1"));
  int records = 0;
  for (const std::string& file : {path, path + ".1"}) {
    std::ifstream in(file);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      ++records;
      std::string error;
      const std::optional<JsonValue> v = json_parse(line, &error);
      ASSERT_TRUE(v.has_value()) << file << ": " << error;
      EXPECT_EQ(v->find("schema")->string, "cgps-serve-access-v1");
      EXPECT_EQ(v->find("status")->string, "ok");
      EXPECT_EQ(v->find("task")->string, "link");
      EXPECT_GE(v->find("trace_id")->number, 1.0);
      EXPECT_GE(v->find("queue_us")->number, 0.0);
      EXPECT_GE(v->find("total_us")->number, 0.0);
      EXPECT_GE(v->find("batch")->number, 1.0);
      EXPECT_GE(v->find("batch_size")->number, 1.0);
      EXPECT_EQ(v->find("design")->number, 0.0);
    }
  }
  EXPECT_GT(records, 0);
  EXPECT_LE(records, total);  // rotation may drop the oldest records
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(ServeProtocol, StatsResponseRoundTrip) {
  const std::string json = "{\"schema\":\"cgps-serve-stats-v1\"}";
  const std::vector<std::uint8_t> payload = serve::encode_stats_response(0xABCDull, json);
  const auto decoded = serve::decode_stats_response(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, 0xABCDull);
  EXPECT_EQ(decoded->json, json);

  // Truncation at every prefix of the prologue fails cleanly; so does a
  // prologue with no JSON body.
  for (std::size_t cut = 0; cut <= 13; ++cut) {
    const std::vector<std::uint8_t> trunc(payload.begin(),
                                          payload.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(serve::decode_stats_response(trunc).has_value()) << "cut=" << cut;
  }

  // A stats payload is not a response payload and vice versa.
  EXPECT_FALSE(serve::decode_response(payload).has_value());
  Response resp;
  EXPECT_FALSE(serve::decode_stats_response(serve::encode_response(resp)).has_value());
}

// One wire version: every encoder stamps kProtocolVersion (2) in the byte
// after the 4-byte magic, and every decoder rejects the retired v1 and the
// unknown v3 rather than misreading them.
TEST(ServeProtocol, EveryPayloadIsVersion2Only) {
  ASSERT_EQ(serve::kProtocolVersion, 2);
  std::vector<std::uint8_t> req = serve::encode_request(Request{});
  std::vector<std::uint8_t> resp = serve::encode_response(Response{});
  std::vector<std::uint8_t> stats = serve::encode_stats_response(7, "{}");
  EXPECT_EQ(req[4], 2);
  EXPECT_EQ(resp[4], 2);
  EXPECT_EQ(stats[4], 2);
  EXPECT_TRUE(serve::decode_request(req).has_value());
  EXPECT_TRUE(serve::decode_response(resp).has_value());
  EXPECT_TRUE(serve::decode_stats_response(stats).has_value());
  for (const std::uint8_t v : {std::uint8_t{1}, std::uint8_t{3}}) {
    req[4] = v;
    resp[4] = v;
    stats[4] = v;
    EXPECT_FALSE(serve::decode_request(req).has_value()) << "v=" << int(v);
    EXPECT_FALSE(serve::decode_response(resp).has_value()) << "v=" << int(v);
    EXPECT_FALSE(serve::decode_stats_response(stats).has_value()) << "v=" << int(v);
  }
}

TEST(ServeProtocol, RequestAndResponseRoundTrip) {
  Request r;
  r.id = 0xDEADBEEFull;
  r.design = 2;
  r.task = TaskKind::kEdgeCap;
  r.node_a = 123;
  r.node_b = -1;
  r.deadline_us = 987654;
  const auto decoded = serve::decode_request(serve::encode_request(r));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, r.id);
  EXPECT_EQ(decoded->design, r.design);
  EXPECT_EQ(decoded->task, r.task);
  EXPECT_EQ(decoded->node_a, r.node_a);
  EXPECT_EQ(decoded->node_b, r.node_b);
  EXPECT_EQ(decoded->deadline_us, r.deadline_us);

  Response resp;
  resp.id = 77;
  resp.status = Status::kTimeout;
  resp.value = 0.25f;
  resp.cap_farads = 1.5e-15;
  resp.server_us = 4242;
  const auto decoded_resp = serve::decode_response(serve::encode_response(resp));
  ASSERT_TRUE(decoded_resp.has_value());
  EXPECT_EQ(decoded_resp->id, resp.id);
  EXPECT_EQ(decoded_resp->status, resp.status);
  EXPECT_EQ(decoded_resp->value, resp.value);
  EXPECT_EQ(decoded_resp->cap_farads, resp.cap_farads);
  EXPECT_EQ(decoded_resp->server_us, resp.server_us);
}

TEST(ServeProtocol, MalformedPayloadsAreRejected) {
  Request r;
  r.id = 1;
  std::vector<std::uint8_t> payload = serve::encode_request(r);
  // Truncation at every prefix length must fail cleanly, never read past end.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::vector<std::uint8_t> trunc(payload.begin(),
                                          payload.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(serve::decode_request(trunc).has_value()) << "cut=" << cut;
  }
  // Wrong magic.
  payload[0] ^= 0xFF;
  EXPECT_FALSE(serve::decode_request(payload).has_value());
  payload[0] ^= 0xFF;
  // A request payload is not a response payload.
  EXPECT_FALSE(serve::decode_response(payload).has_value());
  // Out-of-range task code.
  std::vector<std::uint8_t> bad_task = serve::encode_request(r);
  bad_task[4 + 1 + 8 + 2] = 0x7F;  // magic+ver+id+design -> task byte
  EXPECT_FALSE(serve::decode_request(bad_task).has_value());
}

TEST(ServeProtocol, ScanFrameHandlesSplitAndCorruptStreams) {
  const std::vector<std::uint8_t> a = serve::encode_request(Request{});
  Response resp;
  resp.status = Status::kOk;
  const std::vector<std::uint8_t> b = serve::encode_response(resp);

  std::vector<std::uint8_t> stream;
  serve::append_frame(stream, a);
  serve::append_frame(stream, b);

  // Feed byte by byte: kNeedMore until each frame completes, in order.
  std::vector<std::uint8_t> fed;
  std::size_t pos = 0;
  std::vector<std::uint8_t> payload;
  int frames = 0;
  for (const std::uint8_t byte : stream) {
    fed.push_back(byte);
    const serve::FrameScan scan = serve::scan_frame(fed, pos, payload);
    if (scan == serve::FrameScan::kFrame) {
      ++frames;
      EXPECT_EQ(payload, frames == 1 ? a : b);
    } else {
      EXPECT_EQ(scan, serve::FrameScan::kNeedMore);
    }
  }
  EXPECT_EQ(frames, 2);
  EXPECT_EQ(pos, fed.size());

  // Oversized length prefix is corrupt, not a huge allocation.
  std::vector<std::uint8_t> evil(4, 0xFF);
  std::size_t evil_pos = 0;
  EXPECT_EQ(serve::scan_frame(evil, evil_pos, payload), serve::FrameScan::kCorrupt);
  // Zero-length frames are invalid too.
  std::vector<std::uint8_t> zero(4, 0x00);
  std::size_t zero_pos = 0;
  EXPECT_EQ(serve::scan_frame(zero, zero_pos, payload), serve::FrameScan::kCorrupt);
}

}  // namespace
}  // namespace cgps
