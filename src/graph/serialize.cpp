#include "flb/graph/serialize.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "flb/util/error.hpp"

namespace flb {

void write_text(std::ostream& os, const TaskGraph& g) {
  os << "flb-taskgraph 1\n";
  if (!g.name().empty()) os << "name " << g.name() << "\n";
  os << "tasks " << g.num_tasks() << "\n";
  os << "edges " << g.num_edges() << "\n";
  os.precision(17);
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    os << "t " << t << " " << g.comp(t) << "\n";
  for (const Edge& e : g.edges())
    os << "e " << e.from << " " << e.to << " " << e.comm << "\n";
}

bool next_line(std::istream& is, std::string& line) {
  while (std::getline(is, line)) {
    std::size_t i = line.find_first_not_of(" \t\r");
    if (i == std::string::npos) continue;
    if (line[i] == '#') continue;
    return true;
  }
  return false;
}

TaskGraph read_text(std::istream& is) {
  std::string line;
  FLB_REQUIRE(next_line(is, line), "read_text: empty input");
  {
    std::istringstream ls(line);
    std::string magic;
    int version = 0;
    ls >> magic >> version;
    FLB_REQUIRE(magic == "flb-taskgraph" && version == 1,
                "read_text: bad magic line '" + line + "'");
  }

  std::string name;
  std::size_t num_tasks = 0, num_edges = 0;
  bool have_tasks = false, have_edges = false;

  // Header section: name / tasks / edges in any order, until counts known.
  while (!(have_tasks && have_edges)) {
    FLB_REQUIRE(next_line(is, line), "read_text: truncated header");
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "name") {
      std::getline(ls, name);
      std::size_t i = name.find_first_not_of(" \t");
      name = i == std::string::npos ? "" : name.substr(i);
    } else if (key == "tasks") {
      FLB_REQUIRE(static_cast<bool>(ls >> num_tasks),
                  "read_text: malformed tasks line");
      have_tasks = true;
    } else if (key == "edges") {
      FLB_REQUIRE(static_cast<bool>(ls >> num_edges),
                  "read_text: malformed edges line");
      have_edges = true;
    } else {
      FLB_REQUIRE(false, "read_text: unexpected header line '" + line + "'");
    }
  }

  // The builder grows with the lines actually read, never with the
  // header's counts, so an oversized count fails as a truncated list.
  TaskGraphBuilder b;
  b.set_name(name);

  for (std::size_t i = 0; i < num_tasks; ++i) {
    FLB_REQUIRE(next_line(is, line), "read_text: truncated task list");
    std::istringstream ls(line);
    std::string key;
    std::size_t id;
    double comp;
    FLB_REQUIRE(static_cast<bool>(ls >> key >> id >> comp) && key == "t",
                "read_text: malformed task line '" + line + "'");
    FLB_REQUIRE(id == i, "read_text: task ids must be 0..V-1 in order");
    FLB_REQUIRE(std::isfinite(comp),
                "read_text: non-finite computation cost on line '" + line +
                    "'");
    b.add_task(comp);
  }
  for (std::size_t i = 0; i < num_edges; ++i) {
    FLB_REQUIRE(next_line(is, line), "read_text: truncated edge list");
    std::istringstream ls(line);
    std::string key;
    std::size_t from, to;
    double comm;
    FLB_REQUIRE(static_cast<bool>(ls >> key >> from >> to >> comm) &&
                    key == "e",
                "read_text: malformed edge line '" + line + "'");
    FLB_REQUIRE(from < num_tasks && to < num_tasks,
                "read_text: edge endpoint out of range");
    FLB_REQUIRE(std::isfinite(comm),
                "read_text: non-finite communication cost on line '" + line +
                    "'");
    b.add_edge(static_cast<TaskId>(from), static_cast<TaskId>(to), comm);
  }
  return std::move(b).build();
}

std::string to_text(const TaskGraph& g) {
  std::ostringstream os;
  write_text(os, g);
  return os.str();
}

TaskGraph from_text(const std::string& text) {
  std::istringstream is(text);
  return read_text(is);
}

}  // namespace flb
