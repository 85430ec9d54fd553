#include "util/lint/include_graph.hpp"

#include "util/parallel.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace cgps::lint {

namespace {

// --- shared small helpers -------------------------------------------------

void add_finding(std::vector<Finding>& out, const FileUnit& f, int line,
                 std::string rule, std::string message) {
  Finding v;
  v.file = f.rel;
  v.line = line;
  v.rule = std::move(rule);
  v.message = std::move(message);
  if (line > 0) v.excerpt = line_text(f.raw, f.starts, line);
  out.push_back(std::move(v));
}

// Collapse "." and ".." components of a '/'-separated relative path.
std::string normalize_rel(std::string_view path) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos <= path.size()) {
    const std::size_t slash = path.find('/', pos);
    const std::string_view part =
        path.substr(pos, slash == std::string_view::npos ? std::string_view::npos
                                                         : slash - pos);
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
    } else if (!part.empty() && part != ".") {
      parts.emplace_back(part);
    }
    if (slash == std::string_view::npos) break;
    pos = slash + 1;
  }
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += '/';
    out += part;
  }
  return out;
}

std::string dir_of(std::string_view rel) {
  const std::size_t slash = rel.rfind('/');
  return slash == std::string_view::npos ? std::string() : std::string(rel.substr(0, slash));
}

std::string strip_ext(std::string_view rel) {
  const std::size_t dot = rel.rfind('.');
  const std::size_t slash = rel.rfind('/');
  if (dot == std::string_view::npos ||
      (slash != std::string_view::npos && dot < slash))
    return std::string(rel);
  return std::string(rel.substr(0, dot));
}

// Module a path belongs to: `src/<m>/...` -> m; otherwise the first
// component (tools, bench, examples, tests).
std::string module_of(std::string_view rel) {
  std::size_t start = 0;
  if (rel.rfind("src/", 0) == 0) start = 4;
  const std::size_t slash = rel.find('/', start);
  if (slash == std::string_view::npos) return std::string(rel.substr(start));
  return std::string(rel.substr(start, slash - start));
}

// --- include parsing ------------------------------------------------------

struct IncludeSite {
  std::string written;       // path as written inside the quotes/brackets
  bool angled = false;       // <...> (system) vs "..." (project)
  bool conditional = false;  // inside an #if/#ifdef/#ifndef region
  bool own = false;          // the .cpp's own header
  int line = 0;
  int target = -1;  // index into the scanned units; -1 = external
};

// Per-file derived data, computed in parallel before the serial passes.
struct FileInfo {
  std::vector<IncludeSite> includes;
  std::vector<std::string> symbols;          // headers only
  std::unordered_set<std::string> tokens;    // identifier tokens, include
                                             // directives excluded
};

// Parse `#include` directives from the stripped text (comments cannot fake
// a directive there), reading the path bytes back out of the raw text
// because the lexer blanks quoted-literal contents.
std::vector<IncludeSite> parse_includes(const FileUnit& f) {
  std::vector<IncludeSite> out;
  const std::string_view s = f.lexed.stripped;
  const std::string_view raw = f.raw;
  int depth = 0;
  for (std::size_t li = 0; li < f.starts.size(); ++li) {
    const std::size_t b = f.starts[li];
    const std::size_t e = s.find('\n', b);
    const std::string_view line =
        s.substr(b, e == std::string_view::npos ? std::string_view::npos : e - b);
    std::size_t i = 0;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i >= line.size() || line[i] != '#') continue;
    ++i;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    const std::string_view directive = line.substr(i);
    if (directive.rfind("if", 0) == 0) {  // if / ifdef / ifndef
      ++depth;
      continue;
    }
    if (directive.rfind("endif", 0) == 0) {
      if (depth > 0) --depth;
      continue;
    }
    if (directive.rfind("include", 0) != 0) continue;
    i += 7;  // "include"
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i >= line.size() || (line[i] != '"' && line[i] != '<')) continue;
    const char close = line[i] == '"' ? '"' : '>';
    const std::size_t open = i + 1;
    const std::size_t end = line.find(close, open);
    if (end == std::string_view::npos) continue;
    IncludeSite site;
    site.angled = close == '>';
    // The lexer blanked the quoted path; read it from the raw bytes.
    site.written.assign(raw.substr(b + open, end - open));
    site.conditional = depth > 0;
    site.line = static_cast<int>(li + 1);
    out.push_back(std::move(site));
  }
  return out;
}

// --- exported-symbol extraction (unused-include) --------------------------

const std::unordered_set<std::string>& cpp_keywords() {
  static const std::unordered_set<std::string> kKeywords{
      "alignas", "alignof", "asm", "auto", "bool", "break", "case", "catch",
      "char", "char8_t", "char16_t", "char32_t", "class", "concept", "const",
      "consteval", "constexpr", "constinit", "const_cast", "continue",
      "co_await", "co_return", "co_yield", "decltype", "default", "delete",
      "do", "double", "dynamic_cast", "else", "enum", "explicit", "export",
      "extern", "false", "final", "float", "for", "friend", "goto", "if",
      "inline", "int", "long", "mutable", "namespace", "new", "noexcept",
      "noreturn", "nodiscard", "maybe_unused", "nullptr", "operator",
      "override", "private", "protected", "public", "register",
      "reinterpret_cast", "requires", "return", "short", "signed", "sizeof",
      "static", "static_assert", "static_cast", "struct", "switch",
      "template", "this", "thread_local", "throw", "true", "try", "typedef",
      "typeid", "typename", "union", "unsigned", "using", "virtual", "void",
      "volatile", "wchar_t", "while", "std", "size_t", "int8_t", "int16_t",
      "int32_t", "int64_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t"};
  return kKeywords;
}

bool is_exportable(const std::string& name) {
  return !name.empty() && cpp_keywords().count(name) == 0;
}

}  // namespace

// Top-level declared names of a header: types (class/struct/union/enum and
// their enumerators), namespace-scope functions, variables, and aliases,
// plus macro names. The walk tracks brace kinds so class members and
// function bodies stay out; over-approximating (a few extra names) is safe
// — it only makes "unused" harder to conclude — while missing a name could
// flag a live include, so collection leans generous.
std::vector<std::string> exported_symbols(const FileUnit& header) {
  const std::string_view s = header.lexed.stripped;
  std::set<std::string> out;

  // Brace kinds: 'n'amespace, 'r'ecord, 'e'num, 'o'ther (function bodies,
  // initializers). Declarations are collected only when every enclosing
  // brace is a namespace (or inside a record/enum for the *name* cases
  // handled via the keyword flag below).
  std::vector<char> braces;
  int paren = 0;
  bool after_record_kw = false;  // just saw class/struct/union/enum
  std::vector<std::string> stmt;  // tokens since last ; { } at paren 0
  std::string prev_ident;
  const auto at_namespace_level = [&] {
    for (const char b : braces)
      if (b != 'n') return false;
    return true;
  };
  const auto in_enum = [&] { return !braces.empty() && braces.back() == 'e'; };

  std::size_t i = 0;
  const std::size_t n = s.size();
  while (i < n) {
    const char c = s[i];
    if (c == '#') {
      // Preprocessor line: collect `#define NAME`, skip the rest.
      std::size_t j = skip_ws(s, i + 1);
      if (s.compare(j, 6, "define") == 0) {
        j = skip_ws(s, j + 6);
        std::string name;
        while (j < n && is_ident_char(s[j])) name += s[j++];
        if (is_exportable(name)) out.insert(name);
      }
      while (i < n && s[i] != '\n') ++i;
      continue;
    }
    if (is_ident_char(c) && !std::isdigit(static_cast<unsigned char>(c))) {
      std::string tok;
      while (i < n && is_ident_char(s[i])) tok += s[i++];
      if (after_record_kw && is_exportable(tok)) {
        out.insert(tok);
        after_record_kw = false;
      } else if (tok == "class" || tok == "struct" || tok == "union" ||
                 tok == "enum") {
        after_record_kw = true;
      }
      if (in_enum() && paren == 0 && is_exportable(tok)) out.insert(tok);
      prev_ident = std::move(tok);
      stmt.push_back(prev_ident);
      continue;
    }
    switch (c) {
      case '(':
        if (at_namespace_level() && paren == 0 && is_exportable(prev_ident))
          out.insert(prev_ident);
        ++paren;
        break;
      case ')':
        if (paren > 0) --paren;
        break;
      case '=':
      case ';':
      case ',':
      case '[':
        if (at_namespace_level() && paren == 0 && is_exportable(prev_ident))
          out.insert(prev_ident);
        if (c == ';') {
          stmt.clear();
          after_record_kw = false;
        }
        break;
      case '{': {
        char kind = 'o';
        if (paren == 0) {
          for (const std::string& t : stmt) {
            if (t == "namespace") kind = 'n';
          }
          if (kind == 'o') {
            for (const std::string& t : stmt) {
              if (t == "enum") kind = 'e';
              if (kind != 'e' && (t == "class" || t == "struct" || t == "union"))
                kind = 'r';
            }
          }
        }
        braces.push_back(kind);
        stmt.clear();
        after_record_kw = false;
        break;
      }
      case '}':
        if (!braces.empty()) braces.pop_back();
        stmt.clear();
        after_record_kw = false;
        break;
      default:
        break;
    }
    if (!std::isspace(static_cast<unsigned char>(c)) && c != '(') prev_ident.clear();
    if (c == '(') prev_ident.clear();
    ++i;
  }
  return std::vector<std::string>(out.begin(), out.end());
}

namespace {

// Identifier tokens of a file with include-directive lines excluded, the
// haystack the unused-include rule probes for a header's symbols.
std::unordered_set<std::string> usage_tokens(const FileUnit& f,
                                             const std::vector<IncludeSite>& includes) {
  std::unordered_set<std::string> out;
  std::vector<char> skip_line(f.starts.size(), 0);
  for (const IncludeSite& site : includes)
    skip_line[static_cast<std::size_t>(site.line - 1)] = 1;
  const std::string_view s = f.lexed.stripped;
  for (std::size_t li = 0; li < f.starts.size(); ++li) {
    if (skip_line[li] != 0) continue;
    const std::size_t b = f.starts[li];
    std::size_t e = s.find('\n', b);
    if (e == std::string_view::npos) e = s.size();
    std::size_t i = b;
    while (i < e) {
      if (is_ident_char(s[i]) && !std::isdigit(static_cast<unsigned char>(s[i]))) {
        std::string tok;
        while (i < e && is_ident_char(s[i])) tok += s[i++];
        out.insert(std::move(tok));
      } else {
        ++i;
      }
    }
  }
  return out;
}

// --- manifests ------------------------------------------------------------

struct LayeringRow {
  std::string from;
  std::string to;
  int line_no = 0;
  int uses = 0;
};

std::vector<LayeringRow> parse_layering(std::string_view text, std::string* error) {
  std::vector<LayeringRow> rows;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    ++line_no;
    const std::size_t eol = text.find('\n', pos);
    const std::string line = trim_copy(
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                       : eol - pos));
    if (!line.empty() && line[0] != '#') {
      // `<from> -> <to>`
      const std::size_t arrow = line.find("->");
      LayeringRow row;
      row.line_no = line_no;
      if (arrow != std::string::npos) {
        row.from = trim_copy(line.substr(0, arrow));
        row.to = trim_copy(line.substr(arrow + 2));
      }
      if (row.from.empty() || row.to.empty() ||
          row.from.find(' ') != std::string::npos ||
          row.to.find(' ') != std::string::npos) {
        if (error != nullptr && error->empty())
          *error = "layering manifest line " + std::to_string(line_no) +
                   ": want `<module> -> <module>`";
      } else {
        rows.push_back(std::move(row));
      }
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  return rows;
}

struct AtomicsRow {
  std::string path;
  std::string order;
  std::string justification;
  int line_no = 0;
  int uses = 0;
};

std::vector<AtomicsRow> parse_atomics(std::string_view text, std::string* error) {
  std::vector<AtomicsRow> rows;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    ++line_no;
    const std::size_t eol = text.find('\n', pos);
    const std::string line = trim_copy(
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                       : eol - pos));
    if (!line.empty() && line[0] != '#') {
      AtomicsRow row;
      row.line_no = line_no;
      const std::size_t sp1 = line.find_first_of(" \t");
      if (sp1 != std::string::npos) {
        row.path = line.substr(0, sp1);
        const std::size_t rest = line.find_first_not_of(" \t", sp1);
        const std::size_t sp2 =
            rest == std::string::npos ? std::string::npos : line.find_first_of(" \t", rest);
        if (rest != std::string::npos) {
          row.order = line.substr(
              rest, sp2 == std::string::npos ? std::string::npos : sp2 - rest);
          if (sp2 != std::string::npos)
            row.justification = trim_copy(line.substr(sp2));
        }
      }
      if (row.path.empty() || row.order.rfind("memory_order_", 0) != 0) {
        if (error != nullptr && error->empty())
          *error = "atomics manifest line " + std::to_string(line_no) +
                   ": want `<path> <memory_order_*> <justification>`";
      } else {
        rows.push_back(std::move(row));
      }
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  return rows;
}

// --- module-map cross-check -----------------------------------------------

// Table rows whose first cell is a backticked `src/<module>` path.
std::map<std::string, int> documented_modules(std::string_view doc) {
  std::map<std::string, int> out;
  int line = 0;
  std::size_t pos = 0;
  while (pos <= doc.size()) {
    ++line;
    const std::size_t eol = doc.find('\n', pos);
    const std::string text = trim_copy(doc.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos));
    if (text.size() > 3 && text[0] == '|') {
      const std::size_t tick = text.find('`');
      const std::size_t close =
          tick == std::string::npos ? std::string::npos : text.find('`', tick + 1);
      if (tick != std::string::npos && close != std::string::npos &&
          text.find_first_not_of("| ") == tick) {
        std::string name = text.substr(tick + 1, close - tick - 1);
        if (name.rfind("src/", 0) == 0) {
          name = name.substr(4);
          while (!name.empty() && name.back() == '/') name.pop_back();
          if (!name.empty() && name.find('/') == std::string::npos)
            out.emplace(name, line);
        }
      }
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  return out;
}

void check_module_map(const std::string& doc_rel, const std::string& doc_text,
                      const std::set<std::string>& actual_modules,
                      std::vector<Finding>& findings) {
  const std::map<std::string, int> documented = documented_modules(doc_text);
  if (documented.empty()) return;  // no module map in this document
  for (const std::string& mod : actual_modules) {
    if (documented.count(mod) != 0) continue;
    Finding v;
    v.file = doc_rel;
    v.line = 0;
    v.rule = "module-map-drift";
    v.message = "module map has no row for `src/" + mod +
                "`; every src/ module must be documented";
    findings.push_back(std::move(v));
  }
  for (const auto& [mod, line] : documented) {
    if (actual_modules.count(mod) != 0) continue;
    Finding v;
    v.file = doc_rel;
    v.line = line;
    v.rule = "module-map-drift";
    v.message = "module map documents `src/" + mod +
                "` but no such module exists; delete or rename the row";
    findings.push_back(std::move(v));
  }
}

// --- include-cycle detection (iterative Tarjan SCC) -----------------------

std::vector<std::vector<int>> strongly_connected(
    const std::vector<std::vector<int>>& adj) {
  const int n = static_cast<int>(adj.size());
  std::vector<int> index(static_cast<std::size_t>(n), -1);
  std::vector<int> low(static_cast<std::size_t>(n), 0);
  std::vector<char> on_stack(static_cast<std::size_t>(n), 0);
  std::vector<int> stack;
  std::vector<std::vector<int>> sccs;
  int counter = 0;

  struct Frame {
    int v;
    std::size_t next_edge;
  };
  for (int start = 0; start < n; ++start) {
    if (index[static_cast<std::size_t>(start)] != -1) continue;
    std::vector<Frame> frames{{start, 0}};
    index[static_cast<std::size_t>(start)] =
        low[static_cast<std::size_t>(start)] = counter++;
    stack.push_back(start);
    on_stack[static_cast<std::size_t>(start)] = 1;
    while (!frames.empty()) {
      Frame& fr = frames.back();
      const auto v = static_cast<std::size_t>(fr.v);
      if (fr.next_edge < adj[v].size()) {
        const int w = adj[v][fr.next_edge++];
        const auto wu = static_cast<std::size_t>(w);
        if (index[wu] == -1) {
          index[wu] = low[wu] = counter++;
          stack.push_back(w);
          on_stack[wu] = 1;
          frames.push_back({w, 0});
        } else if (on_stack[wu] != 0) {
          low[v] = std::min(low[v], index[wu]);
        }
      } else {
        if (low[v] == index[v]) {
          std::vector<int> scc;
          while (true) {
            const int w = stack.back();
            stack.pop_back();
            on_stack[static_cast<std::size_t>(w)] = 0;
            scc.push_back(w);
            if (w == fr.v) break;
          }
          sccs.push_back(std::move(scc));
        }
        const int child = fr.v;
        frames.pop_back();
        if (!frames.empty()) {
          const auto p = static_cast<std::size_t>(frames.back().v);
          low[p] = std::min(low[p], low[static_cast<std::size_t>(child)]);
        }
      }
    }
  }
  return sccs;
}

}  // namespace

DepsReport analyze_includes(const std::vector<FileUnit>& units,
                            const DepsOptions& options) {
  Stopwatch watch;
  DepsReport report;
  report.files_scanned = static_cast<int>(units.size());

  std::unordered_map<std::string, int> by_rel;
  for (std::size_t u = 0; u < units.size(); ++u)
    by_rel.emplace(units[u].rel, static_cast<int>(u));

  // Per-file extraction (includes, exported symbols, usage tokens) is pure
  // per file, so it parallelizes over the pool; every serial pass below
  // walks units in sorted order, keeping findings deterministic.
  std::vector<FileInfo> info(units.size());
  par::parallel_for(
      0, static_cast<std::int64_t>(units.size()), 1,
      [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t idx = b; idx < e; ++idx) {
          const auto u = static_cast<std::size_t>(idx);
          const FileUnit& f = units[u];
          FileInfo& fi = info[u];
          fi.includes = parse_includes(f);
          const std::string own_stem = strip_ext(f.rel);
          for (IncludeSite& site : fi.includes) {
            if (site.angled) continue;
            // Resolve against the include root (src/) first, then relative
            // to the includer — mirroring the build's include paths.
            const std::string from_src = normalize_rel("src/" + site.written);
            const std::string from_here =
                normalize_rel(dir_of(f.rel) + "/" + site.written);
            auto it = by_rel.find(from_src);
            if (it == by_rel.end()) it = by_rel.find(from_here);
            if (it != by_rel.end()) site.target = it->second;
            if (site.target >= 0 && !f.is_header &&
                units[static_cast<std::size_t>(site.target)].is_header &&
                strip_ext(units[static_cast<std::size_t>(site.target)].rel) ==
                    own_stem)
              site.own = true;
          }
          if (f.is_header) fi.symbols = exported_symbols(f);
          fi.tokens = usage_tokens(f, fi.includes);
        }
      });

  // --- rule: include-order (+ duplicates) ---------------------------------
  for (std::size_t u = 0; u < units.size(); ++u) {
    const FileUnit& f = units[u];
    int max_cat = -1;
    const IncludeSite* prev = nullptr;
    int prev_cat = -1;
    std::map<std::string, int> seen;  // written path -> first line
    for (const IncludeSite& site : info[u].includes) {
      if (site.conditional) {
        prev = nullptr;
        continue;
      }
      const auto [it, fresh] = seen.emplace(site.written, site.line);
      if (!fresh) {
        add_finding(report.findings, f, site.line, "include-order",
                    "duplicate include of \"" + site.written +
                        "\" (first included on line " + std::to_string(it->second) +
                        ")");
        prev = &site;
        continue;
      }
      const int cat = site.own ? 0 : (site.angled ? 2 : 1);
      if (cat < max_cat) {
        const char* kind = site.own ? "the file's own header"
                                    : (site.angled ? "a system include"
                                                   : "a project include");
        add_finding(report.findings, f, site.line, "include-order",
                    std::string(kind) +
                        " appears after a later block; convention is own "
                        "header, then project headers, then system headers "
                        "(DESIGN.md §9)");
      } else if (prev != nullptr && cat == prev_cat && site.line == prev->line + 1 &&
                 site.written < prev->written) {
        add_finding(report.findings, f, site.line, "include-order",
                    "\"" + site.written + "\" sorts before \"" + prev->written +
                        "\"; keep each include block lexicographically sorted");
      }
      max_cat = std::max(max_cat, cat);
      prev = &site;
      prev_cat = cat;
    }
  }

  // --- rule: include-cycle ------------------------------------------------
  std::vector<std::vector<int>> adj(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    for (const IncludeSite& site : info[u].includes)
      if (site.target >= 0) adj[u].push_back(site.target);
  }
  for (const std::vector<int>& scc : strongly_connected(adj)) {
    const bool self_loop =
        scc.size() == 1 &&
        std::count(adj[static_cast<std::size_t>(scc[0])].begin(),
                   adj[static_cast<std::size_t>(scc[0])].end(), scc[0]) > 0;
    if (scc.size() < 2 && !self_loop) continue;
    std::vector<int> members(scc);
    std::sort(members.begin(), members.end());
    std::string cycle;
    for (const int m : members) {
      if (!cycle.empty()) cycle += " -> ";
      cycle += units[static_cast<std::size_t>(m)].rel;
    }
    cycle += " -> " + units[static_cast<std::size_t>(members[0])].rel;
    const std::set<int> in_scc(members.begin(), members.end());
    for (const int m : members) {
      const auto mu = static_cast<std::size_t>(m);
      int line = 0;
      for (const IncludeSite& site : info[mu].includes) {
        if (site.target >= 0 && in_scc.count(site.target) != 0 &&
            (site.target != m || self_loop)) {
          line = site.line;
          break;
        }
      }
      add_finding(report.findings, units[mu], line, "include-cycle",
                  "header include cycle: " + cycle +
                      "; break it with a forward declaration or by moving "
                      "the shared type down a layer");
    }
  }

  // --- rule: unused-include (IWYU-lite) -----------------------------------
  for (std::size_t u = 0; u < units.size(); ++u) {
    const FileUnit& f = units[u];
    for (const IncludeSite& site : info[u].includes) {
      if (site.target < 0 || site.own || site.conditional) continue;
      const auto t = static_cast<std::size_t>(site.target);
      if (t == u || !units[t].is_header) continue;
      const std::vector<std::string>& symbols = info[t].symbols;
      if (symbols.empty()) continue;  // opaque header: nothing to check
      bool used = false;
      for (const std::string& symbol : symbols) {
        if (info[u].tokens.count(symbol) != 0) {
          used = true;
          break;
        }
      }
      if (!used)
        add_finding(report.findings, f, site.line, "unused-include",
                    "none of the " + std::to_string(symbols.size()) +
                        " top-level symbols of \"" + site.written +
                        "\" appear in this file; drop the include (or "
                        "include what you use instead)");
    }
  }

  // --- rules: layering-violation / layering-manifest-stale ----------------
  std::map<std::pair<std::string, std::string>, std::pair<std::string, int>> edges;
  for (std::size_t u = 0; u < units.size(); ++u) {
    const FileUnit& f = units[u];
    if (f.rel.rfind("src/", 0) != 0) continue;
    const std::string from = module_of(f.rel);
    for (const IncludeSite& site : info[u].includes) {
      if (site.target < 0) continue;
      const std::string& target_rel = units[static_cast<std::size_t>(site.target)].rel;
      if (target_rel.rfind("src/", 0) != 0) continue;
      const std::string to = module_of(target_rel);
      if (to == from) continue;
      edges.emplace(std::make_pair(from, to), std::make_pair(f.rel, site.line));
    }
  }
  for (const auto& [edge, site] : edges) {
    ModuleEdge e;
    e.from = edge.first;
    e.to = edge.second;
    e.example_file = site.first;
    e.example_line = site.second;
    report.edges.push_back(std::move(e));
  }

  const std::string layering_path = options.layering_path.empty()
                                        ? options.root + "/tools/cgps_layering.txt"
                                        : options.layering_path;
  std::string layering_text;
  if (read_file(layering_path, layering_text)) {
    std::vector<LayeringRow> rows = parse_layering(layering_text, &report.error);
    if (!report.error.empty()) return report;
    for (const ModuleEdge& e : report.edges) {
      bool allowed = false;
      for (LayeringRow& row : rows) {
        if (row.from == e.from && row.to == e.to) {
          ++row.uses;
          allowed = true;
          break;
        }
      }
      if (!allowed) {
        Finding v;
        v.file = e.example_file;
        v.line = e.example_line;
        v.rule = "layering-violation";
        v.message = "module edge `" + e.from + " -> " + e.to +
                     "` is not declared in tools/cgps_layering.txt; refactor "
                     "the dependency or (for a genuinely new layer edge) add "
                     "the manifest row in the same reviewed change";
        const auto it = by_rel.find(e.example_file);
        if (it != by_rel.end()) {
          const FileUnit& f = units[static_cast<std::size_t>(it->second)];
          v.excerpt = line_text(f.raw, f.starts, e.example_line);
        }
        report.findings.push_back(std::move(v));
      }
    }
    for (const LayeringRow& row : rows) {
      if (row.uses > 0) continue;
      Finding v;
      v.file = "tools/cgps_layering.txt";
      v.line = row.line_no;
      v.rule = "layering-manifest-stale";
      v.message = "edge `" + row.from + " -> " + row.to +
                   "` is declared but no include realizes it; the manifest "
                   "is shrink-only — delete the row";
      report.findings.push_back(std::move(v));
    }
  }

  // --- rules: atomics manifest + volatile ---------------------------------
  const std::string atomics_path = options.atomics_path.empty()
                                       ? options.root + "/tools/cgps_atomics.txt"
                                       : options.atomics_path;
  std::string atomics_text;
  const bool have_atomics = read_file(atomics_path, atomics_text);
  std::vector<AtomicsRow> atomics_rows;
  if (have_atomics) {
    atomics_rows = parse_atomics(atomics_text, &report.error);
    if (!report.error.empty()) return report;
  }
  static constexpr const char* kWeakOrders[] = {
      "memory_order_relaxed", "memory_order_acquire", "memory_order_release",
      "memory_order_acq_rel"};
  for (std::size_t u = 0; u < units.size(); ++u) {
    const FileUnit& f = units[u];
    if (f.is_test) continue;
    const std::string_view s = f.lexed.stripped;
    if (have_atomics) {
      for (const char* order : kWeakOrders) {
        for (const std::size_t pos : token_offsets(s, order)) {
          bool listed = false;
          for (AtomicsRow& row : atomics_rows) {
            if (row.path == f.rel && row.order == order) {
              ++row.uses;
              listed = true;
              break;
            }
          }
          if (!listed)
            add_finding(report.findings, f, line_of(f.starts, pos),
                        "atomic-order-unmanifested",
                        std::string(order) + " in " + f.rel +
                            " has no reviewed row in tools/cgps_atomics.txt; "
                            "weaker-than-seq_cst orders need a one-line "
                            "justification (DESIGN.md §9)");
        }
      }
      // `std::memory_order::relaxed` spelling would slip past the scanner.
      for (const std::size_t pos : token_offsets(s, "memory_order")) {
        const std::size_t after = skip_ws(s, pos + 12);
        if (after + 1 < s.size() && s[after] == ':' && s[after + 1] == ':')
          add_finding(report.findings, f, line_of(f.starts, pos),
                      "atomic-order-unmanifested",
                      "use the memory_order_* spelling; the scoped "
                      "memory_order:: form hides the site from the "
                      "tools/cgps_atomics.txt scanner");
      }
    }
    for (const std::size_t pos : token_offsets(s, "volatile"))
      add_finding(report.findings, f, line_of(f.starts, pos), "volatile-banned",
                  "`volatile` is not a concurrency tool; use std::atomic");
  }
  if (have_atomics) {
    for (const AtomicsRow& row : atomics_rows) {
      if (row.justification.empty()) {
        Finding v;
        v.file = "tools/cgps_atomics.txt";
        v.line = row.line_no;
        v.rule = "atomics-manifest-unjustified";
        v.message = "row `" + row.path + " " + row.order +
                     "` carries no justification; every manifest entry must "
                     "say why the weaker order is sound";
        report.findings.push_back(std::move(v));
      }
      if (row.uses == 0) {
        Finding v;
        v.file = "tools/cgps_atomics.txt";
        v.line = row.line_no;
        v.rule = "atomics-manifest-stale";
        v.message = "row `" + row.path + " " + row.order +
                     "` matches no site; the manifest is shrink-only — "
                     "delete the row";
        report.findings.push_back(std::move(v));
      }
    }
  }

  // --- rule: module-map-drift ---------------------------------------------
  std::set<std::string> actual_modules;
  for (const FileUnit& f : units)
    if (f.rel.rfind("src/", 0) == 0) actual_modules.insert(module_of(f.rel));
  for (const char* doc : {"README.md", "docs/OPERATIONS.md"}) {
    std::string text;
    if (read_file(options.root + "/" + doc, text))
      check_module_map(doc, text, actual_modules, report.findings);
  }

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  report.wall_ms = watch.milliseconds();
  return report;
}

DepsReport run_deps(const DepsOptions& options) {
  Stopwatch watch;
  std::string error;
  std::vector<FileUnit> units = scan_tree(options.root, &error);
  if (!error.empty()) {
    DepsReport report;
    report.error = error;
    return report;
  }
  if (units.empty()) {
    DepsReport report;
    report.error = "no sources found under " + options.root;
    return report;
  }
  DepsReport report = analyze_includes(units, options);
  report.wall_ms = watch.milliseconds();
  return report;
}

std::string render_dot(const std::vector<ModuleEdge>& edges) {
  std::set<std::string> nodes;
  std::set<std::pair<std::string, std::string>> arcs;
  for (const ModuleEdge& e : edges) {
    nodes.insert(e.from);
    nodes.insert(e.to);
    arcs.emplace(e.from, e.to);
  }
  std::string out = "digraph cgps_modules {\n";
  out += "  // generated by `cgps_deps --dot` (DESIGN.md §9)\n";
  out += "  rankdir=BT;\n";
  out += "  node [shape=box, fontsize=11];\n";
  for (const std::string& node : nodes) out += "  \"" + node + "\";\n";
  for (const auto& [from, to] : arcs)
    out += "  \"" + from + "\" -> \"" + to + "\";\n";
  out += "}\n";
  return out;
}

int deps_main(int argc, const char* const* argv, std::string& out) {
  std::string root;
  std::string layering;
  std::string atomics;
  bool dot = false;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--dot") {
      dot = true;
    } else if (arg == "--check") {
      dot = false;
    } else if (arg == "--layering" && i + 1 < argc) {
      layering = argv[++i];
    } else if (arg == "--atomics" && i + 1 < argc) {
      atomics = argv[++i];
    } else if (!arg.empty() && arg[0] != '-' && root.empty()) {
      root = arg;
    } else {
      usage_error = true;
    }
  }
  if (root.empty() || usage_error) {
    out +=
        "usage: cgps_deps <repo-root> [--check] [--dot] [--layering FILE] "
        "[--atomics FILE]\n";
    return 2;
  }

  const DepsReport report = run_deps({root, layering, atomics});
  if (!report.error.empty()) {
    out += "cgps_deps: " + report.error + "\n";
    return 2;
  }
  if (dot) {
    out += render_dot(report.edges);
    return 0;
  }
  for (const Finding& v : report.findings) {
    out += v.file + ":" + std::to_string(v.line) + " " + v.rule + " " +
           v.message + "\n";
    if (!v.excerpt.empty()) out += "    > " + v.excerpt + "\n";
  }
  char wall[64];
  std::snprintf(wall, sizeof(wall), "%.1f", report.wall_ms);
  out += "cgps_deps: " + std::to_string(report.findings.size()) +
         " violation(s) over " + std::to_string(report.files_scanned) +
         " files in " + wall + " ms\n";
  return report.findings.empty() ? 0 : 1;
}

}  // namespace cgps::lint
