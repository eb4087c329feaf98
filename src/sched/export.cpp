#include "flb/sched/export.hpp"

#include <array>
#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>

#include "flb/graph/serialize.hpp"
#include "flb/util/error.hpp"

namespace flb {

namespace {

// One line of exported text, formatted with std::to_chars: ids in decimal,
// times in chars_format::general at precision 17. That is printf's %.17g,
// so the bytes equal what an ostream writes at precision(17), and 17
// significant digits round-trip every double. The buffer holds the longest
// schedule-text line: "a ", two 10-digit ids, two 24-byte times and three
// separators.
class TextLine {
 public:
  TextLine& text(std::string_view t) {
    FLB_ASSERT(t.size() <= buf_.size() - size_);
    size_ += t.copy(buf_.data() + size_, t.size());
    return *this;
  }
  TextLine& id(std::uint32_t v) {
    return advance(std::to_chars(cursor(), buf_.data() + buf_.size(), v));
  }
  TextLine& cost(double v) {
    return advance(std::to_chars(cursor(), buf_.data() + buf_.size(), v,
                                 std::chars_format::general, 17));
  }
  [[nodiscard]] std::string_view view() const {
    return {buf_.data(), size_};
  }
  void clear() { size_ = 0; }

 private:
  char* cursor() { return buf_.data() + size_; }
  TextLine& advance(std::to_chars_result r) {
    FLB_ASSERT(r.ec == std::errc());
    size_ = static_cast<std::size_t>(r.ptr - buf_.data());
    return *this;
  }

  std::array<char, 96> buf_{};
  std::size_t size_ = 0;
};

// JSON-safe number formatting: %.17g, enough digits to round-trip a double.
void number(std::ostream& os, double v) {
  TextLine line;
  os << line.cost(v).view();
}

}  // namespace

void write_schedule_json(std::ostream& os, const TaskGraph& g,
                         const Schedule& s) {
  os << "{\"graph\":\"" << g.name() << "\",\"procs\":" << s.num_procs()
     << ",\"tasks_total\":" << g.num_tasks() << ",\"makespan\":";
  number(os, s.makespan());
  os << ",\"tasks\":[";
  bool first = true;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (!s.is_scheduled(t)) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"id\":" << t << ",\"proc\":" << s.proc(t) << ",\"start\":";
    number(os, s.start(t));
    os << ",\"finish\":";
    number(os, s.finish(t));
    os << ",\"comp\":";
    number(os, g.comp(t));
    os << "}";
  }
  os << "]}";
}

void write_chrome_trace(std::ostream& os, const TaskGraph& g,
                        const Schedule& s) {
  os << "[";
  bool first = true;
  for (ProcId p = 0; p < s.num_procs(); ++p) {
    for (TaskId t : s.tasks_on(p)) {
      if (!first) os << ",\n";
      first = false;
      os << "{\"name\":\"t" << t << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << p
         << ",\"ts\":";
      number(os, s.start(t) * 1e6);
      os << ",\"dur\":";
      number(os, (s.finish(t) - s.start(t)) * 1e6);
      os << ",\"args\":{\"comp\":";
      number(os, g.comp(t));
      os << "}}";
    }
  }
  os << "]\n";
}

void write_schedule_text(std::ostream& os, const Schedule& s) {
  TextLine line;
  os << line.text("flb-schedule 1\nprocs ")
            .id(s.num_procs())
            .text("\ntasks ")
            .id(s.num_tasks())
            .text("\n")
            .view();
  for (TaskId t = 0; t < s.num_tasks(); ++t) {
    if (!s.is_scheduled(t)) continue;
    line.clear();
    os << line.text("a ")
              .id(t)
              .text(" ")
              .id(s.proc(t))
              .text(" ")
              .cost(s.start(t))
              .text(" ")
              .cost(s.finish(t))
              .text("\n")
              .view();
  }
}

Schedule read_schedule_text(std::istream& is) {
  std::string line;
  FLB_REQUIRE(next_line(is, line), "read_schedule_text: empty input");
  {
    std::istringstream ls(line);
    std::string magic;
    int version = 0;
    ls >> magic >> version;
    FLB_REQUIRE(magic == "flb-schedule" && version == 1,
                "read_schedule_text: bad magic line '" + line + "'");
  }
  std::size_t procs = 0, tasks = 0;
  bool have_procs = false, have_tasks = false;
  while (!(have_procs && have_tasks)) {
    FLB_REQUIRE(next_line(is, line), "read_schedule_text: truncated header");
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "procs") {
      FLB_REQUIRE(static_cast<bool>(ls >> procs) && procs >= 1,
                  "read_schedule_text: malformed procs line");
      FLB_REQUIRE(procs < kInvalidProc,
                  "read_schedule_text: processor count out of range");
      have_procs = true;
    } else if (key == "tasks") {
      FLB_REQUIRE(static_cast<bool>(ls >> tasks),
                  "read_schedule_text: malformed tasks line");
      FLB_REQUIRE(tasks < kInvalidTask,
                  "read_schedule_text: task count out of range");
      have_tasks = true;
    } else {
      FLB_REQUIRE(false,
                  "read_schedule_text: unexpected header line '" + line + "'");
    }
  }

  Schedule s(static_cast<ProcId>(procs), static_cast<TaskId>(tasks));
  while (next_line(is, line)) {
    std::istringstream ls(line);
    std::string key;
    std::size_t task = 0, proc = 0;
    double start = 0.0, finish = 0.0;
    FLB_REQUIRE(
        static_cast<bool>(ls >> key >> task >> proc >> start >> finish) &&
            key == "a",
        "read_schedule_text: malformed assignment line '" + line + "'");
    FLB_REQUIRE(task < tasks, "read_schedule_text: task id out of range");
    FLB_REQUIRE(proc < procs,
                "read_schedule_text: processor id out of range");
    s.assign(static_cast<TaskId>(task), static_cast<ProcId>(proc), start,
             finish);
  }
  return s;
}

std::string to_schedule_text(const Schedule& s) {
  std::ostringstream os;
  write_schedule_text(os, s);
  return os.str();
}

Schedule schedule_from_text(const std::string& text) {
  std::istringstream is(text);
  return read_schedule_text(is);
}

std::string to_schedule_json(const TaskGraph& g, const Schedule& s) {
  std::ostringstream os;
  write_schedule_json(os, g, s);
  return os.str();
}

std::string to_chrome_trace(const TaskGraph& g, const Schedule& s) {
  std::ostringstream os;
  write_chrome_trace(os, g, s);
  return os.str();
}

}  // namespace flb
