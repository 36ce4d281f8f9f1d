package repro.perfbench

/** Minimal JSON rendering for the harness's flat result records. */
object Json {

  def render(v: Any): String = v match {
    case s: String                         => quote(s)
    case b: Boolean                        => b.toString
    case d: Double if d.isNaN || d.isInfinite => "null"
    case d: Double                         => java.lang.Double.toString(d)
    case n: Int                            => n.toString
    case n: Long                           => n.toString
    case m: Map[_, _]                      => obj(m.toSeq.map { case (k, x) => k.toString -> x })
  }

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => quote(k) + ":" + render(v) }.mkString("{", ",", "}")

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.result()
  }
}
