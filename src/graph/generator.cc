#include "graph/generator.h"

#include <random>
#include <string>

#include "graph/graph_builder.h"

namespace gpml {

namespace {

constexpr int64_t kMillion = 1'000'000;

std::string N(int i) { return "v" + std::to_string(i); }

void AddAccountNode(GraphBuilder* b, std::string_view name, int i,
                    bool blocked) {
  b->AddNode(name, {"Account"},
             {{"owner", Value::String("u" + std::to_string(i))},
              {"isBlocked", Value::String(blocked ? "yes" : "no")}});
}

void AddTransfer(GraphBuilder* b, int edge_index, std::string_view from,
                 std::string_view to, int64_t amount) {
  b->AddDirectedEdge("t" + std::to_string(edge_index), from, to, {"Transfer"},
                     {{"amount", Value::Int(amount)},
                      {"date", Value::String("1/1/2020")}});
}

}  // namespace

PropertyGraph MakeChainGraph(int n) {
  GraphBuilder b;
  for (int i = 0; i < n; ++i) AddAccountNode(&b, N(i), i, false);
  for (int i = 0; i + 1 < n; ++i) {
    AddTransfer(&b, i, N(i), N(i + 1), (i % 2 == 0 ? 10 : 4) * kMillion);
  }
  return std::move(b).Build().value();
}

PropertyGraph MakeCycleGraph(int n) {
  GraphBuilder b;
  for (int i = 0; i < n; ++i) AddAccountNode(&b, N(i), i, false);
  for (int i = 0; i < n; ++i) {
    AddTransfer(&b, i, N(i), N((i + 1) % n), (i % 2 == 0 ? 10 : 4) * kMillion);
  }
  return std::move(b).Build().value();
}

PropertyGraph MakeCompleteGraph(int n) {
  GraphBuilder b;
  for (int i = 0; i < n; ++i) AddAccountNode(&b, N(i), i, false);
  int e = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      AddTransfer(&b, e++, N(i), N(j), 10 * kMillion);
    }
  }
  return std::move(b).Build().value();
}

PropertyGraph MakeDiamondChain(int k) {
  GraphBuilder b;
  // Nodes: s0, then per diamond i: top ti, bottom bi, join s(i+1). Owners
  // equal the node names so tests/benches can anchor on them.
  auto add = [&b](const std::string& name) {
    b.AddNode(name, {"Account"},
              {{"owner", Value::String(name)},
               {"isBlocked", Value::String("no")}});
  };
  add("s0");
  int e = 0;
  for (int i = 0; i < k; ++i) {
    std::string s = "s" + std::to_string(i);
    std::string t = "top" + std::to_string(i);
    std::string bo = "bot" + std::to_string(i);
    std::string nxt = "s" + std::to_string(i + 1);
    add(t);
    add(bo);
    add(nxt);
    AddTransfer(&b, e++, s, t, 10 * kMillion);
    AddTransfer(&b, e++, t, nxt, 10 * kMillion);
    AddTransfer(&b, e++, s, bo, 10 * kMillion);
    AddTransfer(&b, e++, bo, nxt, 10 * kMillion);
  }
  return std::move(b).Build().value();
}

PropertyGraph MakeGridGraph(int w, int h) {
  GraphBuilder b;
  auto name = [&](int x, int y) {
    return "g" + std::to_string(x) + "_" + std::to_string(y);
  };
  int i = 0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) AddAccountNode(&b, name(x, y), i++, false);
  }
  int e = 0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (x + 1 < w) AddTransfer(&b, e++, name(x, y), name(x + 1, y),
                                 10 * kMillion);
      if (y + 1 < h) AddTransfer(&b, e++, name(x, y), name(x, y + 1),
                                 10 * kMillion);
    }
  }
  return std::move(b).Build().value();
}

PropertyGraph MakeFraudGraph(const FraudGraphOptions& options) {
  GraphBuilder b;
  std::mt19937_64 rng(options.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  const int num_accounts = options.num_accounts;
  for (int i = 0; i < num_accounts; ++i) {
    AddAccountNode(&b, "a" + std::to_string(i), i,
                   unit(rng) < options.blocked_fraction);
  }
  for (int c = 0; c < options.num_cities; ++c) {
    b.AddNode("c" + std::to_string(c), {"City", "Country"},
              {{"name", Value::String(c == 0 ? "Ankh-Morpork"
                                             : "City" + std::to_string(c))}});
  }
  const int num_phones =
      std::max(1, num_accounts * options.num_phones_per_100 / 100);
  for (int p = 0; p < num_phones; ++p) {
    b.AddNode("p" + std::to_string(p), {"Phone"},
              {{"number", Value::Int(p)},
               {"isBlocked", Value::String(unit(rng) < 0.05 ? "yes" : "no")}});
  }
  const int num_ips = std::max(1, num_accounts / 4);
  for (int ip = 0; ip < num_ips; ++ip) {
    b.AddNode("ip" + std::to_string(ip), {"IP"},
              {{"number", Value::String("123." + std::to_string(ip))},
               {"isBlocked", Value::String("no")}});
  }

  std::uniform_int_distribution<int> acct(0, num_accounts - 1);
  std::uniform_int_distribution<int> city(0, options.num_cities - 1);
  std::uniform_int_distribution<int> phone(0, num_phones - 1);
  std::uniform_int_distribution<int> ip(0, num_ips - 1);
  std::uniform_int_distribution<int> millions(1, 12);
  std::uniform_int_distribution<int> month(1, 12);

  int e = 0;
  const int num_transfers = num_accounts * options.transfers_per_account;
  for (int t = 0; t < num_transfers; ++t) {
    int from = acct(rng);
    int to = acct(rng);
    b.AddDirectedEdge(
        "t" + std::to_string(e++), "a" + std::to_string(from),
        "a" + std::to_string(to), {"Transfer"},
        {{"amount", Value::Int(int64_t{1} * millions(rng) * kMillion)},
         {"date", Value::String(std::to_string(month(rng)) + "/1/2020")}});
  }
  for (int i = 0; i < num_accounts; ++i) {
    b.AddDirectedEdge("li" + std::to_string(i), "a" + std::to_string(i),
                      "c" + std::to_string(city(rng)), {"isLocatedIn"});
    b.AddUndirectedEdge("hp" + std::to_string(i), "a" + std::to_string(i),
                        "p" + std::to_string(phone(rng)), {"hasPhone"});
    if (unit(rng) < 0.5) {
      b.AddDirectedEdge("sip" + std::to_string(i), "a" + std::to_string(i),
                        "ip" + std::to_string(ip(rng)), {"signInWithIP"});
    }
  }
  return std::move(b).Build().value();
}

PropertyGraph MakeRandomGraph(int num_nodes, int num_edges, int num_labels,
                              double undirected_fraction, uint64_t seed) {
  GraphBuilder b;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> node(0, num_nodes - 1);
  std::uniform_int_distribution<int> label(0, std::max(0, num_labels - 1));
  std::uniform_int_distribution<int> weight(0, 99);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  for (int i = 0; i < num_nodes; ++i) {
    Value w = Value::Int(weight(rng));
    std::string l = "L" + std::to_string(label(rng));
    b.AddNode(N(i), {l}, {{"w", w}});
  }
  for (int e = 0; e < num_edges; ++e) {
    std::string from = N(node(rng));
    std::string to = N(node(rng));
    std::string l = "L" + std::to_string(label(rng));
    Value w = Value::Int(weight(rng));
    if (unit(rng) < undirected_fraction) {
      b.AddUndirectedEdge("e" + std::to_string(e), from, to, {l}, {{"w", w}});
    } else {
      b.AddDirectedEdge("e" + std::to_string(e), from, to, {l}, {{"w", w}});
    }
  }
  return std::move(b).Build().value();
}

}  // namespace gpml
