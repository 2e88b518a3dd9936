#include "online/event_json.h"

#include "obs/json_writer.h"

namespace pathix {

namespace {

void WriteTransition(obs::JsonWriter* w, const char* key,
                     const TransitionCost& cost) {
  w->Key(key).BeginObject();
  w->Key("drop_pages").Value(cost.drop_pages);
  w->Key("scan_pages").Value(cost.scan_pages);
  w->Key("write_pages").Value(cost.write_pages);
  w->Key("total").Value(cost.total());
  w->EndObject();
}

}  // namespace

void WriteEventLog(obs::JsonWriter* w,
                   const std::vector<JointReconfigurationEvent>& events) {
  w->BeginArray();
  for (const JointReconfigurationEvent& ev : events) {
    w->BeginObject();
    w->Key("op_index").Value(ev.op_index);
    w->Key("initial").Value(ev.initial);
    w->Key("changes").BeginArray();
    for (const JointReconfigurationEvent::PathChange& change : ev.changes) {
      w->BeginObject();
      w->Key("path").Value(change.path);
      w->Key("from").Value(change.from.parts().empty() ? "(none)"
                                                       : change.from.ToString());
      w->Key("to").Value(change.to.ToString());
      w->EndObject();
    }
    w->EndArray();
    w->Key("predicted_savings_per_op").Value(ev.predicted_savings_per_op);
    WriteTransition(w, "transition", ev.transition);
    WriteTransition(w, "measured", ev.measured);
    w->EndObject();
  }
  w->EndArray();
}

}  // namespace pathix
