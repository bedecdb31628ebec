#include "src/verify/certificate.hpp"

#include <limits>
#include <utility>

namespace rtlb {

namespace {

void task_list(JsonWriter& w, const std::vector<TaskId>& tasks) {
  w.begin_array();
  for (TaskId t : tasks) w.value(static_cast<std::int64_t>(t));
  w.end_array();
}

void witness(JsonWriter& w, const IntervalWitness& iw) {
  w.begin_object().field("t1", iw.t1).field("t2", iw.t2).field("demand", iw.demand);
  w.key("terms").begin_array();
  for (const PsiTerm& term : iw.terms) {
    w.begin_object()
        .field("task", static_cast<std::int64_t>(term.task))
        .field("psi", term.psi)
        .end_object();
  }
  w.end_array().end_object();
}

// ---- parse helpers -------------------------------------------------------

[[noreturn]] void bad(const std::string& where, const std::string& why) {
  throw CertificateFormatError("certificate: " + where + ": " + why);
}

const Json& field(const Json& obj, const char* key, const std::string& where) {
  if (!obj.is_object()) bad(where, "expected an object");
  const Json* v = obj.find(key);
  if (v == nullptr) bad(where, std::string("missing field \"") + key + "\"");
  return *v;
}

std::int64_t int_field(const Json& obj, const char* key, const std::string& where) {
  const Json& v = field(obj, key, where);
  if (!v.is_int()) bad(where, std::string("field \"") + key + "\" must be an integer");
  return v.as_int();
}

double number_field(const Json& obj, const char* key, const std::string& where) {
  const Json& v = field(obj, key, where);
  if (!v.is_number()) bad(where, std::string("field \"") + key + "\" must be a number");
  return v.as_double();
}

bool bool_field(const Json& obj, const char* key, const std::string& where) {
  const Json& v = field(obj, key, where);
  if (!v.is_bool()) bad(where, std::string("field \"") + key + "\" must be a boolean");
  return v.as_bool();
}

std::string string_field(const Json& obj, const char* key, const std::string& where) {
  const Json& v = field(obj, key, where);
  if (!v.is_string()) bad(where, std::string("field \"") + key + "\" must be a string");
  return v.as_string();
}

const Json& array_field(const Json& obj, const char* key, const std::string& where) {
  const Json& v = field(obj, key, where);
  if (!v.is_array()) bad(where, std::string("field \"") + key + "\" must be an array");
  return v;
}

TaskId parse_task_id(const Json& v, const std::string& where) {
  if (!v.is_int()) bad(where, "task id must be an integer");
  const std::int64_t raw = v.as_int();
  if (raw < 0 || raw >= std::numeric_limits<TaskId>::max()) bad(where, "task id out of range");
  return static_cast<TaskId>(raw);
}

ResourceId parse_resource_id(std::int64_t raw, const std::string& where) {
  if (raw < 0 || raw >= std::numeric_limits<ResourceId>::max()) {
    bad(where, "resource id out of range");
  }
  return static_cast<ResourceId>(raw);
}

std::vector<TaskId> parse_task_list(const Json& arr, const std::string& where) {
  std::vector<TaskId> out;
  out.reserve(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) out.push_back(parse_task_id(arr.at(i), where));
  return out;
}

IntervalWitness parse_witness(const Json& obj, const std::string& where) {
  IntervalWitness w;
  w.t1 = int_field(obj, "t1", where);
  w.t2 = int_field(obj, "t2", where);
  w.demand = int_field(obj, "demand", where);
  const Json& terms = array_field(obj, "terms", where);
  w.terms.reserve(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const Json& t = terms.at(i);
    PsiTerm term;
    term.task = parse_task_id(field(t, "task", where), where);
    term.psi = int_field(t, "psi", where);
    w.terms.push_back(term);
  }
  return w;
}

void write_certificate(JsonWriter& w, const Certificate& cert) {
  w.begin_object()
      .field("version", cert.version)
      .field("model", cert.dedicated ? "dedicated" : "shared")
      .field("num_tasks", static_cast<std::int64_t>(cert.num_tasks));

  w.key("windows").begin_array();
  for (const WindowFact& f : cert.windows) {
    w.begin_object()
        .field("task", static_cast<std::int64_t>(f.task))
        .field("est", f.est)
        .field("lct", f.lct)
        .key("merged_pred");
    task_list(w, f.merged_pred);
    task_list(w.key("merged_succ"), f.merged_succ);
    w.end_object();
  }
  w.end_array();

  w.key("partitions").begin_array();
  for (const PartitionCert& p : cert.partitions) {
    w.begin_object().field("resource", static_cast<std::int64_t>(p.resource));
    w.key("blocks").begin_array();
    for (const std::vector<TaskId>& b : p.blocks) task_list(w, b);
    w.end_array().key("separations").begin_array();
    for (const SeparationFact& f : p.separations) {
      w.begin_object()
          .field("earlier_finish", f.earlier_finish)
          .field("later_start", f.later_start)
          .end_object();
    }
    w.end_array().end_object();
  }
  w.end_array();

  w.key("bounds").begin_array();
  for (const BoundCert& b : cert.bounds) {
    w.begin_object().field("resource", static_cast<std::int64_t>(b.resource));
    w.field("bound", b.bound);
    if (b.witness) witness(w.key("witness"), *b.witness);
    w.end_object();
  }
  w.end_array();

  if (cert.has_joint) {
    w.key("joint").begin_array();
    for (const JointCert& j : cert.joint) {
      w.begin_object()
          .field("a", static_cast<std::int64_t>(j.a))
          .field("b", static_cast<std::int64_t>(j.b))
          .field("bound", j.bound);
      if (j.witness) witness(w.key("witness"), *j.witness);
      w.end_object();
    }
    w.end_array();
  }

  w.key("shared_cost").begin_object().field("total", cert.shared_cost.total);
  w.key("terms").begin_array();
  for (const SharedCostTerm& t : cert.shared_cost.terms) {
    w.begin_object()
        .field("resource", static_cast<std::int64_t>(t.resource))
        .field("units", t.units)
        .field("unit_cost", t.unit_cost)
        .end_object();
  }
  w.end_array().end_object();

  if (cert.dedicated_cost) {
    const DedicatedCostCert& d = *cert.dedicated_cost;
    w.key("dedicated_cost").begin_object().field("feasible", d.feasible);
    if (!d.feasible) {
      w.field("infeasible_reason", d.infeasible_reason);
      if (d.detail_task != kInvalidTask) {
        w.field("detail_task", static_cast<std::int64_t>(d.detail_task));
      }
      if (d.detail_resource != kInvalidResource) {
        w.field("detail_resource", static_cast<std::int64_t>(d.detail_resource));
      }
      if (d.detail_resource_b != kInvalidResource) {
        w.field("detail_resource_b", static_cast<std::int64_t>(d.detail_resource_b));
      }
    } else {
      w.field("total", d.total).key("node_counts").begin_array();
      for (std::int64_t x : d.node_counts) w.value(x);
      w.end_array().field("relaxation", d.relaxation).key("dual").begin_array();
      for (double y : d.dual) w.value(y);
      w.end_array().field("joint_rows", d.joint_rows);
    }
    w.end_object();
  }
  w.end_object();
}

}  // namespace

JsonRender certificate_json(const Certificate& cert) {
  return JsonRender([&cert](JsonWriter& w) { write_certificate(w, cert); });
}

Certificate parse_certificate(const Json& doc) {
  if (!doc.is_object()) bad("root", "expected a JSON object");
  Certificate cert;

  cert.version = static_cast<int>(int_field(doc, "version", "root"));
  if (cert.version != kCertificateVersion) {
    bad("root", "unknown certificate version " + std::to_string(cert.version));
  }
  const std::string model = string_field(doc, "model", "root");
  if (model == "shared") {
    cert.dedicated = false;
  } else if (model == "dedicated") {
    cert.dedicated = true;
  } else {
    bad("root", "model must be \"shared\" or \"dedicated\"");
  }
  const std::int64_t num_tasks = int_field(doc, "num_tasks", "root");
  if (num_tasks < 0) bad("root", "num_tasks must be non-negative");
  cert.num_tasks = static_cast<std::size_t>(num_tasks);

  const Json& windows = array_field(doc, "windows", "root");
  cert.windows.reserve(windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const std::string where = "windows[" + std::to_string(i) + "]";
    const Json& w = windows.at(i);
    WindowFact fact;
    fact.task = parse_task_id(field(w, "task", where), where);
    fact.est = int_field(w, "est", where);
    fact.lct = int_field(w, "lct", where);
    fact.merged_pred = parse_task_list(array_field(w, "merged_pred", where), where);
    fact.merged_succ = parse_task_list(array_field(w, "merged_succ", where), where);
    cert.windows.push_back(std::move(fact));
  }

  const Json& partitions = array_field(doc, "partitions", "root");
  cert.partitions.reserve(partitions.size());
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    const std::string where = "partitions[" + std::to_string(i) + "]";
    const Json& p = partitions.at(i);
    PartitionCert part;
    part.resource = parse_resource_id(int_field(p, "resource", where), where);
    const Json& blocks = array_field(p, "blocks", where);
    part.blocks.reserve(blocks.size());
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      if (!blocks.at(k).is_array()) bad(where, "each block must be an array of task ids");
      part.blocks.push_back(parse_task_list(blocks.at(k), where));
    }
    const Json& separations = array_field(p, "separations", where);
    part.separations.reserve(separations.size());
    for (std::size_t k = 0; k < separations.size(); ++k) {
      const Json& s = separations.at(k);
      SeparationFact fact;
      fact.earlier_finish = int_field(s, "earlier_finish", where);
      fact.later_start = int_field(s, "later_start", where);
      part.separations.push_back(fact);
    }
    if (!part.blocks.empty() && part.separations.size() != part.blocks.size() - 1) {
      bad(where, "separations must have one entry per block boundary");
    }
    cert.partitions.push_back(std::move(part));
  }

  const Json& bounds = array_field(doc, "bounds", "root");
  cert.bounds.reserve(bounds.size());
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const std::string where = "bounds[" + std::to_string(i) + "]";
    const Json& b = bounds.at(i);
    BoundCert bc;
    bc.resource = parse_resource_id(int_field(b, "resource", where), where);
    bc.bound = int_field(b, "bound", where);
    if (const Json* w = b.find("witness")) bc.witness = parse_witness(*w, where);
    cert.bounds.push_back(std::move(bc));
  }

  if (const Json* joint = doc.find("joint")) {
    if (!joint->is_array()) bad("root", "field \"joint\" must be an array");
    cert.has_joint = true;
    cert.joint.reserve(joint->size());
    for (std::size_t i = 0; i < joint->size(); ++i) {
      const std::string where = "joint[" + std::to_string(i) + "]";
      const Json& j = joint->at(i);
      JointCert jc;
      jc.a = parse_resource_id(int_field(j, "a", where), where);
      jc.b = parse_resource_id(int_field(j, "b", where), where);
      jc.bound = int_field(j, "bound", where);
      if (const Json* w = j.find("witness")) jc.witness = parse_witness(*w, where);
      cert.joint.push_back(std::move(jc));
    }
  }

  const Json& shared = field(doc, "shared_cost", "root");
  cert.shared_cost.total = int_field(shared, "total", "shared_cost");
  const Json& terms = array_field(shared, "terms", "shared_cost");
  cert.shared_cost.terms.reserve(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const std::string where = "shared_cost.terms[" + std::to_string(i) + "]";
    const Json& t = terms.at(i);
    SharedCostTerm term;
    term.resource = parse_resource_id(int_field(t, "resource", where), where);
    term.units = int_field(t, "units", where);
    term.unit_cost = int_field(t, "unit_cost", where);
    cert.shared_cost.terms.push_back(term);
  }

  if (const Json* ded = doc.find("dedicated_cost")) {
    const std::string where = "dedicated_cost";
    DedicatedCostCert d;
    d.feasible = bool_field(*ded, "feasible", where);
    if (!d.feasible) {
      d.infeasible_reason = string_field(*ded, "infeasible_reason", where);
      if (const Json* t = ded->find("detail_task")) d.detail_task = parse_task_id(*t, where);
      if (const Json* r = ded->find("detail_resource")) {
        if (!r->is_int()) bad(where, "detail_resource must be an integer");
        d.detail_resource = parse_resource_id(r->as_int(), where);
      }
      if (const Json* r = ded->find("detail_resource_b")) {
        if (!r->is_int()) bad(where, "detail_resource_b must be an integer");
        d.detail_resource_b = parse_resource_id(r->as_int(), where);
      }
    } else {
      d.total = int_field(*ded, "total", where);
      const Json& counts = array_field(*ded, "node_counts", where);
      d.node_counts.reserve(counts.size());
      for (std::size_t i = 0; i < counts.size(); ++i) {
        if (!counts.at(i).is_int()) bad(where, "node_counts entries must be integers");
        d.node_counts.push_back(counts.at(i).as_int());
      }
      d.relaxation = number_field(*ded, "relaxation", where);
      const Json& dual = array_field(*ded, "dual", where);
      d.dual.reserve(dual.size());
      for (std::size_t i = 0; i < dual.size(); ++i) {
        if (!dual.at(i).is_number()) bad(where, "dual entries must be numbers");
        d.dual.push_back(dual.at(i).as_double());
      }
      d.joint_rows = bool_field(*ded, "joint_rows", where);
    }
    cert.dedicated_cost = std::move(d);
  }

  return cert;
}

Certificate parse_certificate_text(std::string_view text) {
  return parse_certificate(Json::parse(text));
}

}  // namespace rtlb
