// obs/trace tests: span nesting, ambient propagation across scheduled
// events, sim-time monotonicity, and Chrome trace-event export.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/trace.h"
#include "simnet/simulator.h"
#include "simnet/time.h"

namespace mecdns::obs {
namespace {

using simnet::SimTime;

class TraceTest : public ::testing::Test {
 protected:
  simnet::Simulator sim_;
  TraceSink sink_{sim_};
};

TEST_F(TraceTest, ParentChildNesting) {
  const SpanId root = sink_.begin(0, "stub", "lookup");
  const SpanId child = sink_.begin(root, "transport", "query");
  const SpanId grandchild = sink_.begin(child, "server", "serve");
  sink_.end(grandchild);
  sink_.end(child);
  sink_.end(root);

  EXPECT_EQ(sink_.size(), 3u);
  EXPECT_EQ(sink_.find(child)->parent, root);
  EXPECT_EQ(sink_.root_of(grandchild), root);
  EXPECT_EQ(sink_.root_of(root), root);
  EXPECT_EQ(sink_.depth(root), 0u);
  EXPECT_EQ(sink_.depth(grandchild), 2u);
  EXPECT_EQ(sink_.max_depth(), 3u);
  ASSERT_EQ(sink_.children_of(root).size(), 1u);
  EXPECT_EQ(sink_.children_of(root)[0]->id, child);
  ASSERT_EQ(sink_.by_component("transport").size(), 1u);
}

TEST_F(TraceTest, AmbientContextFlowsAcrossScheduledEvents) {
  SpanRef root = begin_root_span(&sink_, "test", "root");
  {
    AmbientSpanGuard ambient(root);
    // The token is captured at schedule time; the child span opened inside
    // the event must attach to `root` even though the guard is gone by then.
    sim_.schedule_after(SimTime::millis(1), [this] {
      SpanRef child = begin_span("test", "child");
      SpanRef inert = begin_span("test", "ignored");
      (void)inert;
      child.end();
    });
  }
  sim_.run();
  root.end();

  const auto children = sink_.children_of(root.id());
  ASSERT_EQ(children.size(), 2u);  // "child" and "ignored"
  EXPECT_EQ(children[0]->name, "child");
  EXPECT_TRUE(children[0]->finished);
  EXPECT_EQ(children[0]->start, SimTime::millis(1));
}

TEST_F(TraceTest, NoAmbientMeansInertSpans) {
  SpanRef span = begin_span("test", "orphan");
  EXPECT_FALSE(span.active());
  span.tag("k", "v");  // must be no-ops, not crashes
  span.end();
  EXPECT_EQ(sink_.size(), 0u);
  EXPECT_FALSE(ambient_span().active());
}

TEST_F(TraceTest, LazyNamesAndTagsAreBuiltOnlyForRecordedSpans) {
  int built = 0;
  const auto name = [&] {
    ++built;
    return std::string("serve www.example.com");
  };
  SpanRef orphan = begin_span("test", name);
  orphan.tag("rcode", [&] {
    ++built;
    return std::string("NOERROR");
  });
  EXPECT_FALSE(orphan.active());
  EXPECT_FALSE(begin_root_span(nullptr, "test", name).active());
  EXPECT_EQ(built, 0);
  EXPECT_EQ(sink_.size(), 0u);

  SpanRef root = begin_root_span(&sink_, "test", name);
  AmbientSpanGuard ambient(root);
  SpanRef child = begin_span("test", name);
  child.tag("rcode", [&] {
    ++built;
    return std::string("NOERROR");
  });
  EXPECT_EQ(built, 3);
  ASSERT_NE(sink_.find(child.id()), nullptr);
  EXPECT_EQ(sink_.find(child.id())->name, "serve www.example.com");
  EXPECT_EQ(*sink_.find(child.id())->tag("rcode"), "NOERROR");
}

TEST_F(TraceTest, SimTimeMonotonicity) {
  // Spans begun at successive sim times: ids (creation order) must carry
  // non-decreasing start stamps, and every finished span has end >= start.
  SpanRef root = begin_root_span(&sink_, "test", "root");
  AmbientSpanGuard ambient(root);
  for (int i = 1; i <= 4; ++i) {
    sim_.schedule_at(SimTime::millis(i), [this, i] {
      SpanRef span = begin_span("test", "step");
      sim_.schedule_after(SimTime::micros(250 * i), [span] { span.end(); });
    });
  }
  sim_.run();
  root.end();

  ASSERT_EQ(sink_.size(), 5u);
  for (std::size_t i = 1; i < sink_.spans().size(); ++i) {
    EXPECT_GE(sink_.spans()[i].start, sink_.spans()[i - 1].start);
  }
  for (const auto& span : sink_.spans()) {
    ASSERT_TRUE(span.finished);
    EXPECT_GE(span.end, span.start);
    EXPECT_GE(span.duration(), SimTime::zero());
  }
  // The root covers all of its children.
  for (const auto* child : sink_.children_of(root.id())) {
    EXPECT_GE(child->start, sink_.find(root.id())->start);
    EXPECT_LE(child->end, sink_.find(root.id())->end);
  }
}

// Minimal structural JSON check: quotes toggle a string state, braces and
// brackets must balance outside strings.
bool json_balanced(const std::string& text) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    if (braces < 0 || brackets < 0) return false;
  }
  return braces == 0 && brackets == 0 && !in_string;
}

TEST_F(TraceTest, ChromeTraceIsWellFormed) {
  const SpanId root = sink_.begin(0, "stub", "lookup \"quoted\"\n");
  sink_.add_tag(root, "rcode", "NOERROR");
  const SpanId child = sink_.begin(root, "transport", "query");
  sink_.end(child);
  sink_.end(root);
  const SpanId open = sink_.begin(0, "stub", "unterminated");
  (void)open;

  const std::string json = sink_.to_chrome_trace();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  // One "X" complete event per span, each on its root's track.
  std::size_t events = 0;
  for (std::size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++events;
  }
  EXPECT_EQ(events, sink_.size());
  // The quote and newline in the span name must be escaped.
  EXPECT_NE(json.find("lookup \\\"quoted\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("\"rcode\":\"NOERROR\""), std::string::npos);
  // The never-ended span is flagged rather than silently zero-length.
  EXPECT_NE(json.find("\"unfinished\":true"), std::string::npos);
}

}  // namespace
}  // namespace mecdns::obs
